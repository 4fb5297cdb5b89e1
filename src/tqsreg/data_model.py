"""Observation tables: CSV ingestion and validation, group splits.

All tables are immutable; every operation returns a new table.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

ROLES = ("covariate", "count", "group", "diagnostic", "ignore")


class TableError(ValueError):
    """Raised for malformed input files or invalid table operations."""


def _frozen(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ObservationTable:
    """Per-observation covariates, per-species counts and metadata.

    covariates : (m, p) array of process covariates (e.g. day-of-year)
    counts     : (m, s) array of per-species counts (real-valued)
    species_names : s column labels for ``counts``
    group_labels  : m opaque string labels (e.g. survey year)
    diagnostics   : named external per-observation columns (e.g. moon
                    brightness), never visible to the estimators
    """

    covariates: np.ndarray
    counts: np.ndarray
    species_names: tuple
    group_labels: tuple
    diagnostics: dict = field(default_factory=dict)
    covariate_names: tuple = ()
    group_name: str = "group"

    def __post_init__(self):
        cov = _frozen(np.atleast_2d(self.covariates))
        cnt = _frozen(np.atleast_2d(self.counts))
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "counts", cnt)
        object.__setattr__(self, "species_names", tuple(self.species_names))
        object.__setattr__(self, "group_labels", tuple(str(g) for g in self.group_labels))
        cov_names = tuple(self.covariate_names) or tuple(
            f"x{j}" for j in range(cov.shape[1])
        )
        object.__setattr__(self, "covariate_names", cov_names)
        diags = {str(k): _frozen(np.asarray(v, dtype=float)) for k, v in self.diagnostics.items()}
        object.__setattr__(self, "diagnostics", diags)

        m = cov.shape[0]
        if cnt.shape[0] != m or len(self.group_labels) != m:
            raise TableError("row counts differ between table fields")
        for name, col in diags.items():
            if col.shape != (m,):
                raise TableError(f"diagnostic column {name!r} has wrong length")
            if not np.all(np.isfinite(col)):
                raise TableError(f"non-finite value in diagnostic column {name!r}")
        if cnt.shape[1] == 0:
            raise TableError("table has zero count columns")
        if not np.all(np.isfinite(cov)) or not np.all(np.isfinite(cnt)):
            raise TableError("non-finite value in table")
        if len(set(self.species_names)) != len(self.species_names):
            raise TableError("duplicate species names")
        if len(self.species_names) != cnt.shape[1]:
            raise TableError("species_names length does not match counts")
        if len(cov_names) != cov.shape[1]:
            raise TableError("covariate_names length does not match covariates")
        if set(diags) & set(self.species_names):
            raise TableError("diagnostic names collide with species names")

    @property
    def n_rows(self):
        return self.covariates.shape[0]

    @property
    def n_species(self):
        return self.counts.shape[1]

    def take_rows(self, idx):
        return ObservationTable(
            covariates=self.covariates[idx],
            counts=self.counts[idx],
            species_names=self.species_names,
            group_labels=[self.group_labels[i] for i in idx],
            diagnostics={k: v[idx] for k, v in self.diagnostics.items()},
            covariate_names=self.covariate_names,
            group_name=self.group_name,
        )


def load_table(path, schema):
    """Load a CSV file into an ObservationTable.

    ``schema`` maps each CSV column name to one role among
    covariate/count/group/diagnostic/ignore.  Exactly the file's columns
    must appear in the schema; at most one column may be the group.
    Group labels are kept verbatim; numeric cells may carry spaces.
    """
    for col, role in schema.items():
        if role not in ROLES:
            raise TableError(f"unknown role {role!r} for column {col!r}")
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise TableError(f"cannot read {path}: {e}") from e
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TableError(f"{path}: empty file") from None
        rows, lines = [], []  # lines[i]: the file line that ends rows[i]
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    if len(set(header)) != len(header):
        raise TableError("duplicate column names in CSV header")
    for row, line in zip(rows, lines):
        if len(row) != len(header):
            raise TableError(
                f"row {line} has {len(row)} cells, the header has {len(header)}")
    missing = [c for c in header if c not in schema]
    if missing:
        raise TableError(f"columns missing from schema: {missing}")
    extra = [c for c in schema if c not in header]
    if extra:
        raise TableError(f"schema names absent columns: {extra}")

    cov_cols = [c for c in header if schema[c] == "covariate"]
    count_cols = [c for c in header if schema[c] == "count"]
    group_cols = [c for c in header if schema[c] == "group"]
    diag_cols = [c for c in header if schema[c] == "diagnostic"]
    if not count_cols:
        raise TableError("schema assigns zero count columns")
    if len(group_cols) > 1:
        raise TableError("schema assigns more than one group column")

    col_idx = {c: header.index(c) for c in header}

    def numeric(col_names):
        out = np.empty((len(rows), len(col_names)))
        for j, c in enumerate(col_names):
            k = col_idx[c]
            for i, row in enumerate(rows):
                cell = row[k].strip()
                try:
                    v = float(cell)
                except ValueError:
                    raise TableError(
                        f"non-numeric value {cell!r} in column {c!r}, row {lines[i]}"
                    ) from None
                if not math.isfinite(v):
                    raise TableError(f"non-finite value in column {c!r}, row {lines[i]}")
                out[i, j] = v
        return out

    covariates = numeric(cov_cols) if cov_cols else np.empty((len(rows), 0))
    counts = numeric(count_cols)
    diagnostics = {c: numeric([c])[:, 0] for c in diag_cols}
    if group_cols:
        k = col_idx[group_cols[0]]
        labels = [row[k] for row in rows]  # " y2013" and "y2013" are two groups
        group_name = group_cols[0]
    else:
        labels = [""] * len(rows)
        group_name = "group"
    return ObservationTable(
        covariates=covariates,
        counts=counts,
        species_names=count_cols,
        group_labels=labels,
        diagnostics=diagnostics,
        covariate_names=cov_cols,
        group_name=group_name,
    )


def save_table(table, path):
    """Write a table back to CSV (covariates, counts, group, diagnostics)."""
    diag_names = list(table.diagnostics)
    header = (
        list(table.covariate_names)
        + list(table.species_names)
        + [table.group_name]
        + diag_names
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(table.n_rows):
            row = [repr(float(v)) for v in table.covariates[i]]
            row += [repr(float(v)) for v in table.counts[i]]
            row.append(table.group_labels[i])
            row += [repr(float(table.diagnostics[d][i])) for d in diag_names]
            w.writerow(row)


def split_by_group(table, held_out):
    """Partition rows into (train, test) by the held-out group label."""
    held_out = str(held_out)
    labels = table.group_labels
    if held_out not in labels:
        raise TableError(f"group label {held_out!r} not present")
    test_idx = [i for i, g in enumerate(labels) if g == held_out]
    train_idx = [i for i, g in enumerate(labels) if g != held_out]
    if not train_idx:
        raise TableError("empty train partition")
    return table.take_rows(train_idx), table.take_rows(test_idx)
