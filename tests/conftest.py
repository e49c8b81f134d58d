import mmap

import numpy as np
import pytest

from factrank.dataio import load_dataset, split_fold
from factrank.kb import Fact, KBBuilder, KnowledgeBase, Relation
from factrank.synth import SyntheticConfig, generate_synthetic
from factrank.text import Names, sort_names
from factrank.wordvec import FactMatrix, WordVectorTable, load_vectors

# desk-size generator settings shared by the mid-weight tests: 104 facts
# (>= 100 so the 99-negative scheme still fills whole candidate sets) and
# small feature dims for speed
SMALL_SYNTH = dict(
    seed=11,
    vocab_size=45,
    facts_per_relation=8,
    qa_pairs=60,
    wordvec_dim=10,
    feature_dim=32,
    concept_labels=64,
)


def id_column(ids) -> Names:
    """The distinct strings ``ids`` as a fact-id column, ``ids[i]`` at row ``i``, as a KB lays its ids out."""
    return Names(*sort_names(list(ids)), "fact id")


def from_rows(ids, rows) -> FactMatrix:
    """A fact matrix of ``rows``, stored as float32, whose row ``i`` is fact ``ids[i]``: no KB needed."""
    return FactMatrix(id_column(ids), np.asarray(rows, dtype=np.float32))


def table_of(dim, vectors) -> WordVectorTable:
    """A word-vector table of the dict ``vectors``, laid out in the columns that ``load_vectors`` gives a file."""
    matrix = np.array(list(vectors.values()), dtype=np.float64).reshape(len(vectors), dim)
    return WordVectorTable(Names(*sort_names(vectors), "token"), matrix)


def is_mapped(array) -> bool:
    """Whether ``array``'s bytes live in a memory map, at the end of its chain of bases."""
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(array.obj if isinstance(array, memoryview) else array, mmap.mmap)


def all_rows(matrix) -> np.ndarray:
    """Every row of ``matrix``, an array or a :class:`text.RowReader`, as one fresh array."""
    return matrix[np.arange(len(matrix))]


def vector_of(table, token):
    """``token``'s vector in ``table``, or None."""
    [row] = table.tokens.rows([token]).tolist()
    return None if row < 0 else table.matrix[row]


def from_facts(facts) -> KnowledgeBase:
    """A knowledge base of ``facts``, in load order, built as a parse of their lines builds one."""
    builder = KBBuilder()
    for f in facts:
        builder.add(f.fact_id, f.subject, f.relation, f.obj)
    return KnowledgeBase(builder.arrays())


@pytest.fixture(scope="session")
def small_synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_synth")
    generate_synthetic(SyntheticConfig(**SMALL_SYNTH), out)
    return out


@pytest.fixture(scope="session")
def small_synth(small_synth_dir):
    d = small_synth_dir
    instances, store, kb = load_dataset(
        d / "kb.tsv", d / "qa.jsonl", d / "features.txt", d / "concepts.txt", d / "concept_labels.txt"
    )
    table = load_vectors(d / "wordvec.txt", SMALL_SYNTH["wordvec_dim"])
    return {"instances": instances, "store": store, "kb": kb, "table": table, "dir": d}


@pytest.fixture(scope="session")
def small_split(small_synth):
    train, test = split_fold(small_synth["instances"], 1)
    return train, test


@pytest.fixture()
def tiny_kb():
    return from_facts(
        [
            Fact("f1", "Umbrella", Relation.USED_FOR, "Shade"),
            Fact("f2", "Beach", Relation.HAS_PROPERTY, "Sandy"),
            Fact("f3", "Fork", Relation.USED_FOR, "eat with"),
            Fact("f4", "Dog", Relation.IS_A, "Pet"),
        ]
    )


@pytest.fixture()
def tiny_table():
    rng = np.random.default_rng(5)
    tokens = ["umbrella", "shade", "beach", "sandy", "fork", "eat", "with", "dog", "pet"]
    return table_of(4, {t: rng.standard_normal(4) for t in tokens})


@pytest.fixture()
def tiny_fact_matrix(tiny_kb, tiny_table):
    return FactMatrix.build(tiny_kb, tiny_table)
