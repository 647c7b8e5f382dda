"""Ingesting a price CSV and running the empirical pipeline on it.

The toolkit ships no market data, but any price series with a header row
goes through the same pipeline as the simulations: prices -> relative
returns -> CCDF -> tail fit -> autocorrelations.  Here the "market data"
is synthesized by compounding known returns, so the round trip is checkable.
"""

import tempfile
from pathlib import Path

import numpy as np

from kestenlab import (
    Exponential,
    KestenScalar,
    Normal,
    RngStream,
    acf,
    simulate,
    tail_exponent_ls,
)
from kestenlab.cli import ingest_prices

# make a price history whose returns we know exactly
spec = KestenScalar(Exponential(0.55), Normal(0.0, 0.0065))
true_returns = simulate(spec, RngStream(2024), 50_000, 5_000).values
prices = 100.0 * np.cumprod(np.concatenate([[1.0], 1.0 + true_returns]))

with tempfile.TemporaryDirectory() as td:
    csv_path = Path(td) / "index.csv"
    rows = ["date,close"] + [f"d{i},{float(p)!r}" for i, p in enumerate(prices)]
    csv_path.write_text("\n".join(rows) + "\n")
    print(f"wrote {len(prices)} synthetic closing prices to {csv_path.name}")

    series = ingest_prices(csv_path, column_spec="close")
    gap = np.max(np.abs(series.values - true_returns))
    print(f"ingested {len(series)} returns; max gap to the originals: {gap:.2e}")
    print(f"provenance digest: {series.spec_digest[:16]}...")

fit = tail_exponent_ls(series, threshold=0.02)
print(f"\ntail fit above 2%: exponent {fit.exponent:.2f} +- {fit.stderr:.2f} "
      f"({fit.n_tail} exceedances)")
print(f"return ACF lag 1: {acf(series, 1).at(1):+.3f}")
print("\nthe same thing from a shell:")
print("  kestenlab ingest index.csv --price-col close --out returns.csv")
print("  kestenlab fit-tail returns.csv --threshold 0.02")
print("  kestenlab acf returns.csv --max-lag 50 --absolute")
