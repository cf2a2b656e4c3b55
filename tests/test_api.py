"""The package's public surface: every exported name resolves, once."""

import mmbgk

# removed from the library; the matching and mass oracles live in tests/oracles.py
_GONE = ("hme_source", "hsm_source", "hme_system_matrix", "hme_system_matrices",
         "hsm_system_matrix", "mm_step", "pi_step", "cpi_step", "connection_coefficients",
         "basis_transform", "match_l2", "restrict", "total_mass", "gauss_hermite",
         "eval_basis_hme", "eval_basis_hsm")


def test_every_exported_name_resolves_once():
    assert len(mmbgk.__all__) == len(set(mmbgk.__all__))
    for name in mmbgk.__all__:
        assert getattr(mmbgk, name) is not None, name


def test_removed_names_are_not_exported():
    assert not set(_GONE) & set(mmbgk.__all__)
    for name in _GONE:
        assert not hasattr(mmbgk, name), name
