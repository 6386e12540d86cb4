"""Shared fixtures: the bundled market-data snapshot."""

from pathlib import Path

import pytest

import capstrip as cs

DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def forward_curve():
    return cs.ZeroCurve.from_csv(DATA_DIR / "libor1m_zero_curve.csv")


@pytest.fixture(scope="session")
def discount_curve():
    return cs.ZeroCurve.from_csv(DATA_DIR / "ois_zero_curve.csv")


@pytest.fixture(scope="session")
def schedule(forward_curve, discount_curve):
    return cs.build_schedule(forward_curve, discount_curve, 180)


@pytest.fixture(scope="session")
def quotes():
    return cs.CapQuoteSet.from_csv(DATA_DIR / "cap_quotes.csv")


@pytest.fixture(scope="session")
def quotes_k200(quotes):
    return cs.CapQuoteSet(quotes.maturities_months, quotes.flat_vols, strike=0.02)


@pytest.fixture(scope="session")
def clean_quotes(quotes):
    return quotes.drop(cs.detect_outliers(quotes).flagged)
