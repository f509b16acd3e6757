"""hermkit: simulation and pricing toolkit for Hermite fractional markets.

The package is organised around the pair (Hurst index H, Hermite order k):

* :mod:`hermkit.kernel` — the moving-average kernel, its L2 norms and the
  normalizing constants every other module consumes.
* :mod:`hermkit.simulate` — sample paths (one engine for every order, exact
  fractional Brownian motion at order 1; subordinated market time) and
  pathwise Stratonovich integration.
* :mod:`hermkit.stats` — quadratic-variation statistics, scaling-regime
  checks, Hurst estimation and long-range-dependence diagnostics.
* :mod:`hermkit.market` — fractional rate machinery, riskless/risky asset
  construction, deflation, market price of risk.
* :mod:`hermkit.pricing` — transport-equation pricing of perpetual
  derivatives, bonds, forwards and the futures marching solver.
* :mod:`hermkit.cli` — config-driven command line front end
  (``python -m hermkit``).
"""

from hermkit.kernel import (
    HermiteSpec,
    KernelConstants,
    QuadResult,
    covariance,
    eval_kernel,
    kernel_l2_norm_sq,
    normalizing_constant,
)
from hermkit.simulate import (
    SamplePath,
    StratonovichConfig,
    chain_rule_residual,
    gen_fgn,
    hermite_polynomial,
    simulate_fbm_exact,
    simulate_hermite_path,
    simulate_paths,
    stratonovich_integral,
    subordinate,
)
from hermkit.stats import (
    HurstEstimate,
    QVReport,
    centered_qv,
    estimate_hurst,
    lrd_coefficient,
    lrd_limit,
    qv_normalizer,
    qv_regime_exponent,
    qv_scaling_exponent,
)
from hermkit.market import (
    AssetPath,
    BasicRate,
    MarketSpec,
    combine_drivers,
    cumulative_rate,
    deflate,
    instantaneous_rate,
    riskless_path,
    riskless_price,
    solve_market_price_of_risk,
    stock_paths,
    stock_paths_sde,
)
from hermkit.pricing import (
    FuturesField,
    Payoff,
    PricingGrid,
    TermStructure,
    bond_price,
    forward_price,
    forward_value,
    futures_march,
    futures_residual,
    perpetual_pde_residual,
    power_derivative_beta,
    price_characteristics,
    price_fd,
    term_structure,
)

__version__ = "0.1.0"

__all__ = [
    "HermiteSpec",
    "KernelConstants",
    "QuadResult",
    "covariance",
    "eval_kernel",
    "kernel_l2_norm_sq",
    "normalizing_constant",
    "SamplePath",
    "StratonovichConfig",
    "chain_rule_residual",
    "gen_fgn",
    "hermite_polynomial",
    "simulate_fbm_exact",
    "simulate_hermite_path",
    "simulate_paths",
    "stratonovich_integral",
    "subordinate",
    "HurstEstimate",
    "QVReport",
    "centered_qv",
    "estimate_hurst",
    "lrd_coefficient",
    "lrd_limit",
    "qv_normalizer",
    "qv_regime_exponent",
    "qv_scaling_exponent",
    "AssetPath",
    "BasicRate",
    "MarketSpec",
    "combine_drivers",
    "cumulative_rate",
    "deflate",
    "instantaneous_rate",
    "riskless_path",
    "riskless_price",
    "solve_market_price_of_risk",
    "stock_paths",
    "stock_paths_sde",
    "FuturesField",
    "Payoff",
    "PricingGrid",
    "TermStructure",
    "bond_price",
    "forward_price",
    "forward_value",
    "futures_march",
    "futures_residual",
    "perpetual_pde_residual",
    "power_derivative_beta",
    "price_characteristics",
    "price_fd",
    "term_structure",
]
