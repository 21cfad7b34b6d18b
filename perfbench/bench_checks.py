"""Output checks and quality figures for the benchmark's CLI runs.

Every check returns a list of error strings; an empty list means the
output passed.  A run whose output fails any check counts all of its
passes as failed.
"""

from __future__ import annotations

import math

ESTIMATORS = ("LS", "MMSE", "NM")
EST_HEADER = "estimator, snr_db, mean_squared_error, n_trials"
ACCURACY_HEADER = "snr_db, radio_id, percent_correct"


def _rows(text: str, header: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header is not {header!r}")
    return [[field.strip() for field in line.split(",")] for line in lines[1:]]


def estimator_table(text: str) -> dict:
    """{(estimator, snr_db): (mean_squared_error, n_trials)} from estimator_error.csv."""
    table = {}
    for fields in _rows(text, EST_HEADER):
        if len(fields) != 4:
            raise ValueError(f"row {fields} does not have 4 fields")
        key = (fields[0], float(fields[1]))
        if key in table:
            raise ValueError(f"duplicate row for {key}")
        table[key] = (float(fields[2]), int(fields[3]))
    return table


def check_estimator_output(text: str, snr_grid, n_trials: int) -> list:
    """Complete, finite rows with the right trial count, in criterion-5 order:
    NM below LS at every SNR >= 9 dB, and MMSE below LS at 0 dB."""
    try:
        table = estimator_table(text)
    except ValueError as exc:
        return [f"estimator_error.csv: {exc}"]
    errors = []
    expected = {(kind, float(snr)) for kind in ESTIMATORS for snr in snr_grid}
    if set(table) != expected:
        errors.append(f"estimator_error.csv rows {sorted(table)} != {sorted(expected)}")
        return errors
    for key, (mse, n) in sorted(table.items()):
        if not (math.isfinite(mse) and mse > 0):
            errors.append(f"{key}: mean squared error {mse} is not finite and positive")
        if n != n_trials:
            errors.append(f"{key}: n_trials {n} != {n_trials}")
    if errors:
        return errors
    for snr in snr_grid:
        nm, ls, mmse = (table[(kind, float(snr))][0] for kind in ("NM", "LS", "MMSE"))
        if snr >= 9.0 and not nm < ls:
            errors.append(f"snr {snr}: NM {nm:.4g} is not below LS {ls:.4g}")
        if snr == 0.0 and not mmse < ls:
            errors.append(f"snr {snr}: MMSE {mmse:.4g} is not below LS {ls:.4g}")
    return errors


def check_classify_output(files: dict, snr_grid, radio_ids, blind_per_radio: int,
                          realizations: int) -> list:
    """One accuracy row per (SNR, radio); every confusion row totals the
    radio's blind set times the realizations; accuracies match the diagonal."""
    errors = []
    try:
        accuracy = {}
        for fields in _rows(files["accuracy.csv"].decode(), ACCURACY_HEADER):
            key = (float(fields[0]), fields[1])
            if key in accuracy:
                raise ValueError(f"duplicate row for {key}")
            accuracy[key] = float(fields[2])
    except (KeyError, ValueError, IndexError) as exc:
        return [f"accuracy.csv: {exc!r}"]
    expected = {(float(snr), rid) for snr in snr_grid for rid in radio_ids}
    if set(accuracy) != expected:
        return [f"accuracy.csv rows {sorted(accuracy)} != {sorted(expected)}"]

    labels = sorted(radio_ids)
    header = "snr_db, true_radio, " + ", ".join(f"declared_{rid}" for rid in labels)
    row_total = blind_per_radio * realizations
    for snr in snr_grid:
        name = f"confusion_snr{snr:g}.csv"
        try:
            rows = _rows(files[name].decode(), header)
            counts = {fields[1]: [int(v) for v in fields[2:]] for fields in rows}
        except (KeyError, ValueError, IndexError) as exc:
            errors.append(f"{name}: {exc!r}")
            continue
        if sorted(counts) != labels or any(len(c) != len(labels) for c in counts.values()):
            errors.append(f"{name}: rows {sorted(counts)} do not cover {labels}")
            continue
        for i, rid in enumerate(labels):
            total = sum(counts[rid])
            if total != row_total:
                errors.append(f"{name}: {rid} totals {total}, expected {row_total}")
                continue
            percent = 100.0 * counts[rid][i] / total
            if abs(percent - accuracy[(float(snr), rid)]) > 1e-9:
                errors.append(f"{name}: {rid} diagonal gives {percent}%, "
                              f"accuracy.csv says {accuracy[(float(snr), rid)]}%")
    return errors


def compare_outputs(reference: dict, files: dict) -> list:
    """A repeat run with the same seed must write byte-identical files."""
    errors = []
    for name in sorted(reference.keys() | files.keys()):
        if reference.get(name) != files.get(name):
            errors.append(f"{name} differs from the first run's bytes")
    return errors


def mean_accuracy_pct(files: dict) -> float:
    """Mean blind-set percent correct over the SNR points (accuracy_vs_snr.dat)."""
    values = [float(line.split()[1]) for line in files["accuracy_vs_snr.dat"].decode().splitlines()
              if line and not line.startswith("#")]
    return sum(values) / len(values)


def mean_mse_db(files: dict) -> dict:
    """Per estimator, the grid mean of 10*log10 of the mean squared tap error."""
    table = estimator_table(files["estimator_error.csv"].decode())
    out = {}
    for kind in ESTIMATORS:
        values = [10.0 * math.log10(mse) for (k, _snr), (mse, _n) in table.items() if k == kind]
        out[kind] = sum(values) / len(values)
    return out
