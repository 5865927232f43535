"""Planner edge cases: pushdown, index residuals, NA semantics, combos."""

import pytest

from repro.relational.catalog import Catalog
from repro.relational.expressions import col
from repro.relational.index import AttributeIndex
from repro.relational.operators import ColumnScan, HashJoin, Select
from repro.relational.planner import execute, plan
from repro.relational.relation import Relation, StoredRelation
from repro.relational.schema import Schema, category, measure
from repro.relational.sql import parse
from repro.relational.types import NA, DataType
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.transposed import TransposedFile
from repro.workloads.census import figure1_dataset, generate_microdata


@pytest.fixture()
def catalog():
    cat = Catalog()
    cat.register(figure1_dataset("census"), "census")
    schema = Schema(
        [category("CODE", DataType.CATEGORY), measure("LABEL", DataType.STR)]
    )
    cat.register(Relation("codes", schema, [(1, "a"), (2, "b")]), "codes")
    return cat


class TestPushdown:
    def test_mixed_conjuncts_split_correctly(self, catalog):
        q = parse(
            "SELECT * FROM census JOIN codes ON AGE_GROUP = CODE "
            "WHERE SEX = 'M' AND LABEL = 'a' AND POPULATION > LABEL"
        )
        # POPULATION > LABEL references both sides: must stay above the join.
        pipeline = plan(q, catalog)
        assert isinstance(pipeline, Select)
        assert isinstance(pipeline.child, HashJoin)

    def test_all_pushed_leaves_join_on_top(self, catalog):
        q = parse(
            "SELECT * FROM census JOIN codes ON AGE_GROUP = CODE WHERE SEX = 'F'"
        )
        assert isinstance(plan(q, catalog), HashJoin)

    def test_pushdown_preserves_semantics(self, catalog):
        text = (
            "SELECT SEX, LABEL FROM census JOIN codes ON AGE_GROUP = CODE "
            "WHERE SEX = 'M' AND LABEL = 'b'"
        )
        got = execute(text, catalog)
        # Manual evaluation without pushdown:
        census = catalog.get("census")
        codes = catalog.get("codes")
        joined = HashJoin(census, codes, ["AGE_GROUP"], ["CODE"])
        filtered = Select(joined, (col("SEX") == "M") & (col("LABEL") == "b"))
        manual = [(r[0], r[6]) for r in filtered]
        assert sorted(got) == sorted(manual)


class TestIndexResiduals:
    def test_residual_with_na_rows(self):
        schema = Schema([measure("k", DataType.INT), measure("v", DataType.FLOAT)])
        rows = [(1, 10.0), (1, NA), (1, 30.0), (2, 5.0)]
        relation = Relation("r", schema, rows, validate=False)
        catalog = Catalog()
        catalog.register(relation, "r")
        catalog.register_index("r", "k", AttributeIndex.build(relation, "k"))
        got = execute("SELECT v FROM r WHERE k = 1 AND v > 5", catalog)
        # The NA row fails the residual predicate (unknown -> false).
        assert sorted(row[0] for row in got) == [10.0, 30.0]

    def test_index_on_between_combined_with_equality(self):
        schema = Schema([measure("a", DataType.INT), measure("b", DataType.INT)])
        rows = [(i, i % 3) for i in range(100)]
        relation = Relation("r", schema, rows)
        catalog = Catalog()
        catalog.register(relation, "r")
        catalog.register_index("r", "a", AttributeIndex.build(relation, "a"))
        got = execute("SELECT a FROM r WHERE a BETWEEN 10 AND 20 AND b = 0", catalog)
        assert sorted(row[0] for row in got) == [12, 15, 18]


class TestCombos:
    def test_left_join_group_having_order_limit(self, catalog):
        got = execute(
            "SELECT LABEL, SUM(POPULATION) AS POP FROM census "
            "LEFT JOIN codes ON AGE_GROUP = CODE "
            "GROUP BY LABEL HAVING POP > 1000 ORDER BY POP DESC LIMIT 2",
            catalog,
        )
        assert len(got) == 2
        pops = [row[1] for row in got]
        assert pops == sorted(pops, reverse=True)

    def test_aggregate_over_index_scan(self):
        schema = Schema([category("g", DataType.INT), measure("v", DataType.FLOAT)])
        rows = [(i % 5, float(i)) for i in range(1000)]
        relation = Relation("r", schema, rows)
        catalog = Catalog()
        catalog.register(relation, "r")
        catalog.register_index("r", "g", AttributeIndex.build(relation, "g"))
        got = execute("SELECT COUNT(*) AS n FROM r WHERE g = 3", catalog)
        assert got.row(0)[0] == 200


class TestPrunedJoinInput:
    """A chunk-capable left join input is scanned only for the columns the
    query references; answers equal the unpruned row-engine reference."""

    @pytest.fixture()
    def stored(self):
        data = generate_microdata(300, seed=3)
        rows = [
            (pid, sex, NA if pid % 11 == 0 else race, region, age, income, hours, edu)
            for pid, sex, race, region, age, income, hours, edu in data
        ]
        disk = SimulatedDisk(block_size=256)
        pool = BufferPool(disk, capacity=8)
        storage = TransposedFile(pool, data.schema.types)
        relation = StoredRelation.load("micro", data.schema, rows, storage)
        cat = Catalog()
        cat.register(relation, "micro")
        schema = Schema(
            [category("CODE", DataType.CATEGORY), measure("LABEL", DataType.STR)]
        )
        # Codes 4 and 5 are undocumented: a left join pads them.
        codes = [(1, "white"), (2, "black"), (3, "asian")]
        cat.register(Relation("codes", schema, codes), "codes")
        return cat, disk, pool, storage

    QUERIES = [
        # WHERE on both sides, HAVING and ORDER BY over a grouped join.
        "SELECT LABEL, count(INCOME) AS n, avg(INCOME) AS a FROM micro "
        "JOIN codes ON RACE = CODE WHERE AGE > 30 AND LABEL <> 'black' "
        "GROUP BY LABEL HAVING n > 5 ORDER BY a DESC",
        # LEFT join: the right-side predicate stays above the join.
        "SELECT PERSON_ID, RACE, LABEL FROM micro LEFT JOIN codes "
        "ON RACE = CODE WHERE HOURS_WORKED > 45 ORDER BY PERSON_ID",
        "SELECT LABEL, sum(HOURS_WORKED) AS h FROM micro LEFT JOIN codes "
        "ON RACE = CODE WHERE REGION < 6 GROUP BY LABEL ORDER BY LABEL",
        "SELECT PERSON_ID, INCOME * 2 AS twice FROM micro JOIN codes "
        "ON RACE = CODE WHERE SEX = 'F' AND LABEL = 'asian'",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_pruned_equals_unpruned_reference(self, stored, text):
        cat = stored[0]
        pruned = plan(parse(text), cat)
        assert _find(pruned, ColumnScan) is not None
        reference = plan(parse(text), cat, use_vectorized=False)
        assert _find(reference, ColumnScan) is None
        got = list(pruned)
        assert got and got == list(reference)

    def test_scan_reads_only_referenced_chains(self, stored):
        cat, disk, pool, storage = stored
        text = (
            "SELECT LABEL, avg(INCOME) AS a FROM micro JOIN codes "
            "ON RACE = CODE WHERE AGE > 30 GROUP BY LABEL HAVING a > 0"
        )
        scan = _find(plan(parse(text), cat), ColumnScan)
        assert scan.schema.names == ["RACE", "AGE", "INCOME"]
        pool.clear()
        disk.reset_stats()
        list(plan(parse(text), cat))
        schema = cat.get("micro").schema
        wanted = sum(
            storage.column_page_count(schema.index_of(name))
            for name in ("RACE", "AGE", "INCOME")
        )
        assert disk.stats.block_reads == wanted

    def test_select_star_keeps_full_width(self, stored):
        text = "SELECT * FROM micro JOIN codes ON RACE = CODE"
        assert _find(plan(parse(text), stored[0]), ColumnScan) is None


def _find(op, cls):
    if isinstance(op, cls):
        return op
    for attr in ("child", "left", "right"):
        child = getattr(op, attr, None)
        if child is not None:
            found = _find(child, cls)
            if found is not None:
                return found
    return None
