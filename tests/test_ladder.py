"""The accuracy ladder: four claims on every rung, judged on seed means.

* every filter beats the seed on full-day OD RMSE;
* pkf beats kf on full-day OD RMSE;
* kf beats the seed after the cutoff;
* pkf beats kf after the cutoff: the paper's prediction claim.

A claim that is false today is ``xfail(strict=True)``: a change that makes
it true must drop the marker.  The exact rung's history is its truth, so the
claims against the seed are skipped there.  The rungs are in ``ladder.py``.
"""

import pytest

from ladder import RUNGS, rung_means

FILTERS = ("kf", "pkf", "spkf")


def _filters_beat_seed(m):
    return [f"{f} {m[f]:.4f} against the seed's {m['seed']:.4f}"
            for f in FILTERS if not m[f] < m["seed"]]


def _pkf_beats_kf(m):
    return [] if m["pkf"] < m["kf"] else [f"pkf {m['pkf']:.4f} against kf {m['kf']:.4f}"]


def _kf_beats_seed_after_cutoff(m):
    return [] if m["kf_pred"] < m["seed_pred"] else [
        f"kf {m['kf_pred']:.4f} against the seed's {m['seed_pred']:.4f} after the cutoff"]


def _pkf_beats_kf_after_cutoff(m):
    return [] if m["pkf_pred"] < m["kf_pred"] else [
        f"pkf {m['pkf_pred']:.4f} against kf {m['kf_pred']:.4f} after the cutoff"]


CLAIMS = {
    "filters-beat-seed": _filters_beat_seed,
    "pkf-beats-kf": _pkf_beats_kf,
    "kf-beats-seed-after-cutoff": _kf_beats_seed_after_cutoff,
    "pkf-beats-kf-after-cutoff": _pkf_beats_kf_after_cutoff,
}
SEED_CLAIMS = {"filters-beat-seed", "kf-beats-seed-after-cutoff"}

#: (rung, claim) -> why the claim is false today
FALSE_TODAY = {
    ("toy-15-noisy@1400", "pkf-beats-kf"):
        "by 14:00 kf's last relative deviation carries as much of the day as the chain: "
        "pkf 26.57 against kf 26.40 over the day, though pkf wins after the cutoff",
    ("grid-draw-7", "kf-beats-seed-after-cutoff"):
        "the history errs per OD with no common mode, and destination counts cannot "
        "separate the ODs: kf 2.79 against the seed's 2.78 after the cutoff",
}

SEED_IS_TRUTH = {"toy-15-exact"}


def _cases():
    for rung in RUNGS:
        for claim in CLAIMS:
            marks = []
            if rung in SEED_IS_TRUTH and claim in SEED_CLAIMS:
                marks.append(pytest.mark.skip(reason="the seed is the truth on this rung"))
            elif (rung, claim) in FALSE_TODAY:
                marks.append(pytest.mark.xfail(strict=True, reason=FALSE_TODAY[rung, claim]))
            yield pytest.param(rung, claim, marks=marks, id=f"{rung}:{claim}")


@pytest.mark.parametrize("rung, claim", _cases())
def test_claim(rung, claim):
    failures = CLAIMS[claim](rung_means(rung))
    assert not failures, f"{rung}: " + "; ".join(failures)
