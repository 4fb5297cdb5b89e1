import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqsreg import data_model
from tqsreg.data_model import (
    ObservationTable,
    TableError,
    load_table,
    save_table,
    split_by_group,
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC_CSV = "day,speciesA,year\n1,3,2013\n2,0,2013\n3,7,2014\n"
BASIC_SCHEMA = {"day": "covariate", "speciesA": "count", "year": "group"}


def make_table(m=6, s=3, years=("2013", "2014"), seed=0):
    rng = np.random.default_rng(seed)
    return ObservationTable(
        covariates=rng.uniform(0, 10, size=(m, 1)),
        counts=rng.integers(0, 20, size=(m, s)).astype(float),
        species_names=[f"sp{j}" for j in range(s)],
        group_labels=[years[i % len(years)] for i in range(m)],
        diagnostics={"bright": rng.uniform(0, 1, size=m)},
        covariate_names=("day",),
        group_name="year",
    )


class TestLoadTable:
    def test_basic_parse(self, tmp_path):
        t = load_table(write_csv(tmp_path / "a.csv", BASIC_CSV), BASIC_SCHEMA)
        assert t.covariates.shape == (3, 1)
        assert t.counts.shape == (3, 1)
        assert t.species_names == ("speciesA",)
        assert t.group_labels == ("2013", "2013", "2014")

    def test_blank_numeric_cell(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "day,speciesA,year\n1,,2013\n2,1,2013\n")
        with pytest.raises(TableError, match="non-numeric value"):
            load_table(p, BASIC_SCHEMA)

    @pytest.mark.parametrize("bad_row", ["2,4", "2,4,2013,7"])
    def test_ragged_row(self, tmp_path, bad_row):
        p = write_csv(tmp_path / "a.csv", f"day,speciesA,year\n1,3,2013\n{bad_row}\n")
        with pytest.raises(TableError, match="row 3 has [0-9] cells, the header has 3"):
            load_table(p, BASIC_SCHEMA)

    @pytest.mark.parametrize("cell, message", [
        ("x", "non-numeric value 'x' in column 'speciesA', row 5$"),
        ("inf", "non-finite value in column 'speciesA', row 5$"),
    ])
    def test_bad_cell_after_blank_lines_names_its_file_line(self, tmp_path, cell,
                                                            message):
        p = write_csv(tmp_path / "a.csv",
                      f"day,speciesA,year\n\n\n1,3,2013\n2,{cell},2013\n")
        with pytest.raises(TableError, match=message):
            load_table(p, BASIC_SCHEMA)

    def test_ragged_row_after_blank_lines_names_its_file_line(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "day,speciesA,year\n1,3,2013\n\n2,4\n")
        with pytest.raises(TableError, match="row 4 has 2 cells, the header has 3"):
            load_table(p, BASIC_SCHEMA)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TableError, match="cannot read"):
            load_table(str(tmp_path / "nope.csv"), BASIC_SCHEMA)

    def test_no_count_columns(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", BASIC_CSV)
        schema = {"day": "covariate", "speciesA": "ignore", "year": "group"}
        with pytest.raises(TableError, match="zero count columns"):
            load_table(p, schema)

    def test_unknown_role(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", BASIC_CSV)
        with pytest.raises(TableError, match="unknown role"):
            load_table(p, {"day": "covariate", "speciesA": "tally", "year": "group"})

    def test_schema_column_mismatch(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", BASIC_CSV)
        with pytest.raises(TableError, match="missing from schema"):
            load_table(p, {"day": "covariate", "year": "group"})

    def test_five_year_ten_species_fixture(self, tmp_path):
        # counts of distinct labels established independently of the loader
        rng = np.random.default_rng(7)
        years = [str(2010 + y) for y in range(5)]
        species = [f"s{j}" for j in range(10)]
        lines = ["day," + ",".join(species) + ",year"]
        expected_labels = []
        for i in range(25):
            label = years[i % 5]
            expected_labels.append(label)
            vals = rng.integers(0, 9, size=10)
            lines.append(f"{i}," + ",".join(map(str, vals)) + f",{label}")
        p = write_csv(tmp_path / "big.csv", "\n".join(lines) + "\n")
        schema = {"day": "covariate", "year": "group"}
        schema.update({s: "count" for s in species})
        t = load_table(p, schema)
        assert t.n_species == 10
        assert len(set(t.group_labels)) == len(set(expected_labels)) == 5

    def test_round_trip(self, tmp_path):
        t = make_table()
        p = tmp_path / "out.csv"
        save_table(t, p)
        schema = {"day": "covariate", "sp0": "count", "sp1": "count", "sp2": "count",
                  "year": "group", "bright": "diagnostic"}
        t2 = load_table(str(p), schema)
        assert np.array_equal(t.covariates, t2.covariates)
        assert np.array_equal(t.counts, t2.counts)
        assert t.group_labels == t2.group_labels
        assert t.species_names == t2.species_names
        np.testing.assert_array_equal(
            t.diagnostics["bright"], t2.diagnostics["bright"]
        )


_cells = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tables(draw):
    m = draw(st.integers(1, 6))
    n_cov = draw(st.integers(0, 2))
    n_diag = draw(st.integers(0, 2))
    n_species = draw(st.integers(1, 3))
    names = draw(st.lists(_cells.filter(bool), unique=True,
                          min_size=n_cov + n_diag + n_species + 1,
                          max_size=n_cov + n_diag + n_species + 1))

    def matrix(k):
        return np.array(draw(st.lists(_finite, min_size=m * k, max_size=m * k)),
                        dtype=float).reshape(m, k)

    diag = matrix(n_diag)
    return ObservationTable(
        covariates=matrix(n_cov),
        counts=matrix(n_species),
        species_names=names[n_cov:n_cov + n_species],
        group_labels=draw(st.lists(_cells, min_size=m, max_size=m)),
        diagnostics={d: diag[:, j] for j, d in enumerate(names[n_cov + n_species:-1])},
        covariate_names=names[:n_cov],
        group_name=names[-1],
    )


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_save_then_load_is_identity(self, t):
        with tempfile.TemporaryDirectory() as tmp:
            p = os.path.join(tmp, "t.csv")
            save_table(t, p)
            t2 = load_table(p, {**dict.fromkeys(t.covariate_names, "covariate"),
                                **dict.fromkeys(t.species_names, "count"),
                                t.group_name: "group",
                                **dict.fromkeys(t.diagnostics, "diagnostic")})
        assert t2.covariate_names == t.covariate_names
        assert t2.species_names == t.species_names
        assert t2.group_name == t.group_name
        assert t2.group_labels == t.group_labels
        np.testing.assert_array_equal(t2.covariates, t.covariates)
        np.testing.assert_array_equal(t2.counts, t.counts)
        assert list(t2.diagnostics) == list(t.diagnostics)
        for name, col in t.diagnostics.items():
            np.testing.assert_array_equal(t2.diagnostics[name], col)


class TestTableInvariants:
    def test_row_count_mismatch(self):
        with pytest.raises(TableError):
            ObservationTable(
                covariates=np.zeros((3, 1)),
                counts=np.zeros((2, 1)),
                species_names=["a"],
                group_labels=["g", "g"],
            )

    def test_non_finite_rejected(self):
        with pytest.raises(TableError):
            ObservationTable(
                covariates=np.array([[1.0], [np.nan]]),
                counts=np.ones((2, 1)),
                species_names=["a"],
                group_labels=["g", "g"],
            )

    def test_duplicate_species(self):
        with pytest.raises(TableError):
            ObservationTable(
                covariates=np.ones((2, 1)),
                counts=np.ones((2, 2)),
                species_names=["a", "a"],
                group_labels=["g", "g"],
            )

    def test_diagnostic_name_collision(self):
        with pytest.raises(TableError):
            ObservationTable(
                covariates=np.ones((2, 1)),
                counts=np.ones((2, 1)),
                species_names=["a"],
                group_labels=["g", "g"],
                diagnostics={"a": np.zeros(2)},
            )

    def test_immutable(self):
        t = make_table()
        with pytest.raises(ValueError):
            t.counts[0, 0] = 99.0


class TestSplitByGroup:
    def test_partition(self):
        t = make_table(m=3, years=("2013", "2014"))
        t = ObservationTable(
            covariates=t.covariates,
            counts=t.counts,
            species_names=t.species_names,
            group_labels=["2013", "2013", "2014"],
            diagnostics=t.diagnostics,
        )
        train, test = split_by_group(t, "2014")
        assert train.n_rows == 2
        assert test.n_rows == 1

    def test_unknown_label(self):
        with pytest.raises(TableError, match="not present"):
            split_by_group(make_table(), "1999")

    def test_empty_train(self):
        t = make_table(m=4, years=("x",))
        with pytest.raises(TableError, match="empty train"):
            split_by_group(t, "x")

    def test_five_equal_years_ratio(self):
        t = make_table(m=25, years=tuple(str(y) for y in range(5)))
        for y in range(5):
            train, test = split_by_group(t, str(y))
            assert train.n_rows == 20 and test.n_rows == 5

    def test_rows_partitioned_exactly(self):
        t = make_table(m=9, years=("a", "b", "c"))
        train, test = split_by_group(t, "b")
        combined = sorted(
            map(tuple, np.vstack([train.covariates, test.covariates]).tolist())
        )
        original = sorted(map(tuple, t.covariates.tolist()))
        assert combined == original
        assert train.n_rows + test.n_rows == t.n_rows

    def test_labels_loaded_verbatim_stay_separate_groups(self, tmp_path):
        p = write_csv(tmp_path / "a.csv",
                      'day,speciesA,year\n1,3," y2013"\n2,0,y2013\n3,7, y2013\n')
        t = load_table(p, BASIC_SCHEMA)
        assert t.group_labels == (" y2013", "y2013", " y2013")
        train, test = split_by_group(t, "y2013")
        assert test.n_rows == 1 and train.n_rows == 2
        assert set(train.group_labels) == {" y2013"}
