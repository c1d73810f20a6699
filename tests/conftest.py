"""Shared fixtures and random parameter builders for the test suite."""

import numpy as np
import pytest

from magnon_sagnac import (
    CavityMode,
    DriveAmplitudes,
    MagnonMode,
    SqueezeSpec,
    SystemParams,
)


@pytest.fixture
def base_params() -> SystemParams:
    """The demonstration parameter set used throughout the docs."""
    return SystemParams.symmetric()


def random_symmetric(rng: np.random.Generator) -> SystemParams:
    """Draw a symmetric parameter set with rates spanning a few decades.

    Symmetric means both cavity ports and both optomagnonic couplings are
    identical, which is what the mirror-image identities assume.
    """
    return SystemParams.symmetric(
        g0_mhz=10.0 ** rng.uniform(0.0, 2.0),
        g_squeeze=rng.uniform(0.0, 1.0),
        kappa_mhz=10.0 ** rng.uniform(-1.0, 1.5),
        eta=rng.uniform(0.05, 0.95),
        gamma_m_mhz=10.0 ** rng.uniform(-1.0, 1.5),
        delta_mhz=rng.uniform(-30.0, 30.0),
        delta_f_mhz=rng.uniform(-60.0, 60.0),
        eps=10.0 ** rng.uniform(-1.0, 1.0),
        omega_s_mhz=rng.uniform(0.0, 100.0),
    )


def random_general(rng: np.random.Generator) -> SystemParams:
    """Draw a parameter set with fully independent ports, couplings, drives."""

    def mode() -> CavityMode:
        return CavityMode.from_eta(
            kappa_mhz=10.0 ** rng.uniform(-1.0, 1.5),
            eta=rng.uniform(0.05, 0.95),
        )

    return SystemParams(
        mode_1=mode(),
        mode_2=mode(),
        magnon=MagnonMode(
            gamma_m_mhz=10.0 ** rng.uniform(-1.0, 1.5),
            eta3=rng.uniform(0.05, 0.95),
        ),
        squeeze=SqueezeSpec(
            g_squeeze=rng.uniform(0.0, 1.0),
            omega_s_mhz=rng.uniform(0.0, 50.0),
        ),
        drive=DriveAmplitudes(
            eps_1=10.0 ** rng.uniform(-1.0, 1.0),
            eps_2=10.0 ** rng.uniform(-1.0, 1.0),
            eps_3_eff=10.0 ** rng.uniform(-1.0, 1.0),
        ),
        g0_1_mhz=10.0 ** rng.uniform(0.0, 2.0),
        g0_2_mhz=10.0 ** rng.uniform(0.0, 2.0),
        delta_mhz=rng.uniform(-30.0, 30.0),
        delta_f_mhz=rng.uniform(-60.0, 60.0),
    )
