import pytest

from monoidrep.linalg import Matrix
from monoidrep.monoids import (
    Monoid,
    from_matrices,
    from_transformations,
    has_zero,
    idempotents,
    local_ideal,
    local_monoid,
    nt_monoid,
    nt_table,
    unit_group,
)

from oracles import (
    MonoidMorphism,
    all_selfmaps,
    is_li_morphism,
    submonoid,
    transformation_closure,
)


def t2():
    return from_transformations(2, [(2, 1), (1, 1)])


# --- construction and validation -------------------------------------------

def test_trivial_monoid():
    m = Monoid([[0]], 0)
    assert m.size == 1 and m.identity == 0
    assert m.generators == ()


def test_cyclic_group_of_order_two():
    m = Monoid([[0, 1], [1, 0]], 0)
    assert idempotents(m) == (0,)
    assert has_zero(m) is None


def test_nt_table_round_trips():
    m = nt_monoid(3)
    again = Monoid(m.table, m.identity)
    assert again == m


def test_identity_law_failure_reported():
    with pytest.raises(ValueError, match="identity law fails at element 1"):
        Monoid([[0, 0], [0, 0]], 0)


def test_associativity_failure_reports_triple():
    # left translations of a quasigroup without associativity
    with pytest.raises(ValueError, match=r"associativity fails at triple \(1, 1, 1\)"):
        Monoid([[0, 1, 2], [1, 2, 0], [2, 1, 0]], 0)


def test_associativity_failure_past_the_first_generator():
    # generators (1, 2, 3): x = 3 passes with a = 1 and fails with a = 2
    table = [[0, 1, 2, 3], [1, 1, 1, 1], [2, 2, 2, 2], [3, 2, 3, 3]]
    with pytest.raises(ValueError, match=r"triple \(3, 2, 1\): \(3\*2\)\*1 = 2 but "
                                         r"3\*\(2\*1\) = 3$"):
        Monoid(table, 0)


def test_out_of_range_entry_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Monoid([[0, 1], [1, 5]], 0)


def test_bad_identity_rejected():
    with pytest.raises(ValueError, match="identity index"):
        Monoid([[0]], 3)


# --- transformation closures -------------------------------------------------

def test_t2_is_all_four_selfmaps():
    m = t2()
    assert m.size == 4
    assert set(m.transformations) == transformation_closure(2, all_selfmaps(2))
    assert m.labels == ("[1,2]", "[2,1]", "[1,1]", "[2,2]")


def test_full_transformation_monoid_sizes():
    for k in (1, 2, 3):
        m = from_transformations(k, all_selfmaps(k))
        assert m.size == k ** k


def test_rank_two_idempotent_generates_t3():
    m = from_transformations(3, [(2, 3, 1), (2, 1, 3), (1, 1, 3)])
    assert m.size == 27
    assert set(m.transformations) == transformation_closure(
        3, [(2, 3, 1), (2, 1, 3), (1, 1, 3)])


def test_constant_map_does_not_generate_t3():
    # a constant has rank 1: the closure is the permutations plus the
    # constants, nothing else
    m = from_transformations(3, [(2, 3, 1), (2, 1, 3), (1, 1, 1)])
    assert m.size == 9


def test_trivial_degree_one():
    m = from_transformations(1, [])
    assert m.size == 1


def test_element_order_identity_then_generators():
    m = from_transformations(3, [(2, 3, 1), (2, 1, 3)])
    assert m.transformations[0] == (0, 1, 2)
    assert m.transformations[1] == (1, 2, 0)
    assert m.transformations[2] == (1, 0, 2)


def test_bad_generator_rejected():
    with pytest.raises(ValueError, match="generator 0"):
        from_transformations(2, [(3, 1)])


@pytest.mark.parametrize("image, shown", [(True, "true"), ("1", "'1'"), (1.0, "1.0")])
def test_non_integer_image_rejected(image, shown):
    with pytest.raises(ValueError, match=f"generator 1 image must be an integer, not {shown}"):
        from_transformations(2, [(1, 2), (2, image)])


@pytest.mark.parametrize("entry, shown", [(True, "true"), (1.0, "1.0")])
def test_non_integer_table_entry_rejected(entry, shown):
    with pytest.raises(ValueError, match=fr"table entry \[1\]\[0\] must be an integer, not {shown}"):
        Monoid([[0, 1], [entry, 0]], 0)


@pytest.mark.parametrize("labels, message", [
    (5, "labels must be a sequence, not 5"),
    (["a", "a"], "label 'a' is repeated"),
    (["1", 1], "label '1' is repeated"),
])
def test_bad_labels_rejected(labels, message):
    with pytest.raises(ValueError, match=message):
        Monoid([[0, 1], [1, 0]], 0, labels=labels)


# --- matrix closures -----------------------------------------------------------

def test_matrix_closure_swap():
    m = from_matrices([Matrix([[0, 1], [1, 0]])], cap=10)
    assert m.size == 2
    assert m.labels == ("g0", "g1")


def test_matrix_closure_nilpotent():
    m = from_matrices([Matrix([[0, 2], [0, 0]])], cap=10)
    assert m.size == 3  # identity, generator, zero matrix
    assert has_zero(m) == 2


def test_matrix_closure_cap_exceeded():
    with pytest.raises(ValueError, match="cap exceeded"):
        from_matrices([Matrix([[2]])], cap=10)


def test_matrix_closure_cap_counts_identity_and_generators():
    """``cap`` bounds every matrix of the closure: the identity and a
    generator are two, so the swap's closure exceeds a cap of 1."""
    swap = Matrix([[0, 1], [1, 0]])
    assert from_matrices([swap], cap=2).size == 2
    with pytest.raises(ValueError, match="cap exceeded: more than 1 distinct elements"):
        from_matrices([swap], cap=1)
    with pytest.raises(ValueError, match="cap exceeded: more than 2 distinct elements"):
        from_matrices([swap, Matrix([[1, 0], [0, 0]])], cap=2)


# --- nt family -----------------------------------------------------------------

def test_nt_small():
    m = nt_monoid(1)
    assert m.size == 2 and m.identity == 1
    assert m.table[0][0] == 0


def test_nt_products_collapse_to_zero():
    m = nt_monoid(3)
    assert m.size == 4
    assert m.table[2][3] == 0 and m.table[2][2] == 0
    assert m.table[1][3] == 3 and m.table[3][1] == 3


def test_nt_idempotents_and_zero():
    for t in range(1, 7):
        m = nt_monoid(t)
        assert idempotents(m) == (0, 1)
        assert has_zero(m) == 0


def test_nt_requires_positive_t():
    with pytest.raises(ValueError):
        nt_monoid(0)


def test_nt_table_cut_is_the_smaller_nt_table():
    """N_t is N_T's first t + 1 elements, table and labels, for every
    2 <= t <= T <= 60: the fact that makes each ``scan-nt`` row N_to's
    cut (``algebra._restriction``)."""
    tables = {t: nt_table(t) for t in range(2, 61)}
    labels = {t: nt_monoid(t).labels for t in range(2, 61)}
    for big in range(2, 61):
        for t in range(2, big + 1):
            assert tuple(row[:t + 1] for row in tables[big][:t + 1]) == tables[t]
            assert labels[big][:t + 1] == labels[t]


# --- local structure -------------------------------------------------------------

def test_idempotents_of_t2():
    m = t2()
    # identity and the two constants
    assert idempotents(m) == (0, 2, 3)


def test_local_monoid_at_identity_is_everything():
    m = t2()
    assert local_monoid(m, m.identity) == (0, 1, 2, 3)


def test_local_monoid_at_constant_is_singleton():
    m = t2()
    assert local_monoid(m, 2) == (2,)


def test_local_monoid_nt_zero():
    m = nt_monoid(4)
    assert local_monoid(m, 0) == (0,)


def test_unit_groups():
    m = t2()
    assert unit_group(m, m.identity) == (0, 1)   # identity and swap
    n = nt_monoid(4)
    assert unit_group(n, 1) == (1,)
    assert unit_group(n, 0) == (0,)


def test_local_ideals():
    m = t2()
    assert local_ideal(m, m.identity) == (2, 3)
    n = nt_monoid(4)
    assert local_ideal(n, 1) == (0, 2, 3, 4)
    s2 = from_transformations(2, [(2, 1)])
    assert local_ideal(s2, s2.identity) == ()


def test_local_structure_partitions_eme(corpus):
    for rho in corpus.values():
        m = rho.monoid
        for e in idempotents(m):
            eme = local_monoid(m, e)
            units = unit_group(m, e)
            ideal = local_ideal(m, e)
            assert tuple(sorted(set(units) | set(ideal))) == eme
            assert not set(units) & set(ideal)
            assert e in units


def test_ideal_property(corpus):
    # a * x * b stays in the ideal for a, b in eMe and x in I_e
    for rho in corpus.values():
        m = rho.monoid
        for e in idempotents(m):
            eme = local_monoid(m, e)
            ideal = set(local_ideal(m, e))
            for a in eme:
                for x in ideal:
                    ax = m.table[a][x]
                    for b in eme:
                        assert m.table[ax][b] in ideal


def test_unit_group_is_a_group(corpus):
    for rho in corpus.values():
        m = rho.monoid
        for e in idempotents(m):
            units = unit_group(m, e)
            for g in units:
                assert m.table[e][g] == g == m.table[g][e]
                assert any(m.table[g][h] == e and m.table[h][g] == e for h in units)
                for h in units:
                    assert m.table[g][h] in units


def test_rejects_non_idempotent():
    m = t2()
    with pytest.raises(ValueError, match="not an idempotent"):
        local_monoid(m, 1)  # the swap


def test_non_idempotent_named_by_label_and_bad_index_by_range():
    m = t2()
    with pytest.raises(ValueError, match=r"^element '\[2,1\]' is not an idempotent$"):
        unit_group(m, 1)
    for e in (-1, m.size):
        with pytest.raises(ValueError, match=f"^element index {e} is out of range "
                                             f"for a monoid of size 4$"):
            local_monoid(m, e)


def test_has_zero_cases():
    assert has_zero(t2()) is None
    assert has_zero(nt_monoid(5)) == 0
    trivial = Monoid([[0]], 0)
    assert has_zero(trivial) == 0


def test_submonoid_inherits_labels():
    m = t2()
    sub = submonoid(m, local_monoid(m, 2), 2)
    assert sub.size == 1 and sub.labels == ("[1,1]",)
    # {swap, const_1} is not closed: swap * swap is the identity
    with pytest.raises(ValueError, match="not closed"):
        submonoid(m, (1, 2), 1)


# --- morphisms --------------------------------------------------------------------

def test_identity_morphism_is_li():
    m = nt_monoid(3)
    phi = MonoidMorphism(m, m, range(m.size))
    assert is_li_morphism(phi) == (True, None)


def test_collapsing_top_elements_is_li():
    src = nt_monoid(3)
    dst = nt_monoid(2)
    phi = MonoidMorphism(src, dst, [0, 1, 2, 2])
    assert is_li_morphism(phi) == (True, None)


def test_collapse_to_trivial_is_not_li():
    src = nt_monoid(3)
    dst = Monoid([[0]], 0)
    phi = MonoidMorphism(src, dst, [0, 0, 0, 0])
    ok, witness = is_li_morphism(phi)
    assert not ok and witness == (1, 0)


def test_morphism_validation():
    m = nt_monoid(2)
    with pytest.raises(ValueError, match="identity"):
        MonoidMorphism(m, m, [0, 0, 0])
    with pytest.raises(ValueError, match="multiplicative"):
        MonoidMorphism(m, m, [2, 1, 0])
