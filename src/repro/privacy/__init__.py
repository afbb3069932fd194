"""Privacy evaluation: the attack battery of Figures 5-7 plus DP utilities.

* :mod:`repro.privacy.reidentification` -- linkage / re-identification attack
  with a configurable fraction of attacker background knowledge (Fig. 5).
* :mod:`repro.privacy.attribute_inference` -- inferring a sensitive column
  from quasi-identifiers using the synthetic data as attacker training set
  (Fig. 6).
* :mod:`repro.privacy.membership_inference` -- white-box and fully-black-box
  membership inference against a synthesizer (Fig. 7).
* :mod:`repro.privacy.dp` -- Laplace / Gaussian mechanisms and a simple
  composition accountant, as standalone utilities: no synthesizer, example
  or benchmark uses them (PATE-GAN tracks its own Laplace budget).
* :mod:`repro.privacy.accountant` -- Renyi-DP (moments) accounting for the
  subsampled Gaussian mechanism, used by DP-FedAvg training.
"""

from repro.privacy.dp import (
    CompositionAccountant,
    exponential_mechanism,
    gaussian_mechanism,
    gaussian_sigma,
    laplace_mechanism,
    randomized_response,
)
from repro.privacy.accountant import (
    MomentsAccountant,
    RDPAccountant,
    dp_sgd_epsilon,
    rdp_gaussian,
    rdp_subsampled_gaussian,
    rdp_to_epsilon,
)
from repro.privacy.reidentification import ReidentificationAttack, ReidentificationResult
from repro.privacy.attribute_inference import AttributeInferenceAttack, AttributeInferenceResult
from repro.privacy.membership_inference import (
    MembershipInferenceAttack,
    MembershipInferenceResult,
)

__all__ = [
    "laplace_mechanism",
    "gaussian_mechanism",
    "gaussian_sigma",
    "exponential_mechanism",
    "randomized_response",
    "CompositionAccountant",
    "RDPAccountant",
    "MomentsAccountant",
    "dp_sgd_epsilon",
    "rdp_gaussian",
    "rdp_subsampled_gaussian",
    "rdp_to_epsilon",
    "ReidentificationAttack",
    "ReidentificationResult",
    "AttributeInferenceAttack",
    "AttributeInferenceResult",
    "MembershipInferenceAttack",
    "MembershipInferenceResult",
]
