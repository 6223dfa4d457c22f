"""Write one tick file for the ticks-to-shares workload, and the volatility it implies.

    python3 bench/ticks.py --seed N --unit K --sessions S --out DIR

Writes DIR/ticks.csv and DIR/expected.npz, which holds the session dates
and each session's annualized volatility recomputed from the ticks with
numpy alone.  `child.py` runs this in a process of its own between units,
so that neither the time nor the memory it takes counts towards the run
that measures tvewd.  Each (seed, unit) pair gives different ticks, so no
measured unit repeats the input of another.
"""

import argparse
import os

import numpy as np

from tvewd import sim

# Tick sessions: labelled by date D, open at 18:00 on D-1, 276 five-minute bins.
SESSIONS = 2000
BINS = 276
OPEN_SECONDS = 18 * 3600
EXCLUDED_MONTH_DAYS = {(12, 24), (12, 25), (12, 26), (12, 31), (1, 1), (1, 2)}


def session_dates(n: int) -> np.ndarray:
    days = np.busday_offset(np.datetime64("2012-01-03"), np.arange(int(n * 1.05) + 20), roll="forward")
    keep = [d for d in days if (d.item().month, d.item().day) not in EXCLUDED_MONTH_DAYS]
    return np.array(keep[:n], dtype="datetime64[D]")


def expected_vol(session: np.ndarray, offsets: np.ndarray, prices: np.ndarray, n: int) -> np.ndarray:
    """Annualized volatility of each session, without tvewd.rv.

    Bars take the last tick at or before each bin end: a tick at offset
    s seconds after the open falls in bin ceil(s / 300).  Empty bins carry
    the previous bar forward; bins before a session's first tick are dropped.
    """
    key = session * (BINS + 1) + (offsets + 299) // 300
    last = np.flatnonzero(np.r_[key[1:] != key[:-1], True])
    bars = np.full((n, BINS + 1), -1, dtype=np.int64)
    bars[session[last], key[last] % (BINS + 1)] = last
    bars = np.maximum.accumulate(bars[:, 1:], axis=1)
    logp = np.log(prices[np.maximum(bars, 0)])
    both = (bars[:, 1:] >= 0) & (bars[:, :-1] >= 0)
    r = np.where(both, np.diff(logp, axis=1), 0.0)
    return 100.0 * np.sqrt(252.0 * np.sum(r * r, axis=1))


def write_ticks(seed: int, unit: int, n: int, out: str) -> None:
    rng = np.random.default_rng([seed, unit])
    dates = session_dates(n)
    # daily log-volatility: a persistent TVP-AR(1) path from the simulator
    logvol = sim.simulate(
        sim.TvpArScenario(
            p=1, T=n,
            coefficients=(sim.Curve("sinusoid", {"base": 0.8, "amplitude": 0.15, "frequency": 0.75}),),
            sigma=sim.Curve("constant", {"value": 0.25}), seed=int(rng.integers(2**31)), label="logvol",
        )
    ).series.values
    counts = rng.integers(300, 501, size=n)
    session = np.repeat(np.arange(n), counts)
    offsets = rng.integers(1, BINS * 300 + 1, size=len(session))
    offsets = offsets[np.lexsort((offsets, session))]
    opens = (dates - np.timedelta64(1, "D")).astype("datetime64[s]").astype(np.int64) + OPEN_SECONDS
    stamps = opens[session] + offsets
    daily_sd = 0.015 * np.exp(logvol)
    steps = rng.standard_normal(len(session)) * (daily_sd / np.sqrt(counts))[session]
    prices = 100.0 * np.exp(np.cumsum(steps))
    text = np.datetime_as_string(stamps.astype("datetime64[s]"), unit="s").tolist()
    lines = ["timestamp,price"] + [f"{t},{p!r}" for t, p in zip(text, prices.tolist())]
    with open(os.path.join(out, "ticks.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    np.savez(os.path.join(out, "expected.npz"), dates=dates.astype(str),
             vol=expected_vol(session, offsets, prices, n))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--unit", type=int, required=True)
    parser.add_argument("--sessions", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_ticks(args.seed, args.unit, args.sessions, args.out)


if __name__ == "__main__":
    main()
