import numpy as np
import pytest

from equiguide.autodiff import Tensor, check_gradient, mul, tsum
from equiguide.groups import make_group


GROUPS = {
    "flip-h": (make_group({"group": "flip-h"}), (6, 6)),
    "flip-v": (make_group({"group": "flip-v"}), (6, 6)),
    "rot90": (make_group({"group": "rot90"}), (5, 5)),
    "cyclic": (make_group({"group": "cyclic-translate", "shift": 1, "length": 7}), (7,)),
    "perm": (make_group({"group": "permutation", "perm": [1, 2, 3, 0]}), (4,)),
}


def test_flip_h_twice_identity():
    g, shape = GROUPS["flip-h"]
    x = np.random.default_rng(0).standard_normal(shape)
    out = g.apply_domain(1, g.apply_domain(1, x))
    np.testing.assert_array_equal(out, x)


def test_rot90_four_times_identity():
    g, shape = GROUPS["rot90"]
    x = np.random.default_rng(1).standard_normal(shape)
    out = x
    for _ in range(4):
        out = g.apply_domain(1, out)
    np.testing.assert_array_equal(out, x)


def test_rot90_matches_numpy():
    g, _ = GROUPS["rot90"]
    x = np.random.default_rng(2).standard_normal((5, 5))
    np.testing.assert_array_equal(g.apply_domain(1, x), np.rot90(x))


def test_cyclic_translate_of_list():
    g = make_group({"group": "cyclic-translate", "shift": 1, "length": 3})
    np.testing.assert_array_equal(g.apply_domain(1, np.array([1.0, 2.0, 3.0])), [3.0, 1.0, 2.0])


def test_rot90_rejects_nonsquare():
    g, _ = GROUPS["rot90"]
    with pytest.raises(ValueError):
        g.apply_domain(1, np.ones((3, 4)))


def test_identity_element_exact():
    for name, (g, shape) in GROUPS.items():
        x = np.random.default_rng(3).standard_normal(shape)
        np.testing.assert_array_equal(g.apply_domain(g.identity, x), x)
        np.testing.assert_array_equal(g.apply_codomain(g.identity, x), x)


def test_inverse_axiom_exact():
    rng = np.random.default_rng(4)
    for name, (g, shape) in GROUPS.items():
        x = rng.standard_normal(shape)
        for el in g.elements:
            out = g.apply_domain(el, g.apply_domain(g.inverse(el), x))
            np.testing.assert_array_equal(out, x, err_msg=f"{name} element {el}")


def test_group_axioms_random_triples():
    rng = np.random.default_rng(5)
    for name, (g, shape) in GROUPS.items():
        x = rng.standard_normal(shape)
        for _ in range(1000):
            a, b, c = rng.integers(0, g.order, size=3)
            # associativity on indices
            assert g.compose(g.compose(a, b), c) == g.compose(a, g.compose(b, c))
            # closure: composed element acts like sequential application
            lhs = g.apply_domain(g.compose(a, b), x)
            rhs = g.apply_domain(a, g.apply_domain(b, x))
            np.testing.assert_array_equal(lhs, rhs, err_msg=f"{name} ({a},{b})")


def test_actions_preserve_norm_exactly():
    # permutations preserve the entry multiset bit-exactly, hence the norm
    rng = np.random.default_rng(6)
    for name, (g, shape) in GROUPS.items():
        x = rng.standard_normal(shape)
        for el in g.elements:
            out = g.apply_domain(el, x)
            np.testing.assert_array_equal(np.sort(out.reshape(-1)), np.sort(x.reshape(-1)))
            assert np.isclose(np.linalg.norm(out), np.linalg.norm(x), rtol=0, atol=1e-14)


def test_random_element_uniform_over_non_identity():
    g, _ = GROUPS["rot90"]
    rng = np.random.default_rng(7)
    draws = np.array([g.random_element(rng) for _ in range(4000)])
    assert 0 not in draws
    for el in (1, 2, 3):
        freq = np.mean(draws == el)
        assert abs(freq - 1.0 / 3.0) < 0.05


def test_random_element_single_flip():
    g, _ = GROUPS["flip-h"]
    rng = np.random.default_rng(8)
    assert all(g.random_element(rng) == 1 for _ in range(10))


def test_random_element_deterministic_given_seed():
    g, _ = GROUPS["rot90"]
    a = [g.random_element(np.random.default_rng(9)) for _ in range(5)]
    b = [g.random_element(np.random.default_rng(9)) for _ in range(5)]
    assert a == b


def test_random_element_trivial_group_errors():
    g = make_group({"group": "identity"})
    with pytest.raises(ValueError):
        g.random_element(np.random.default_rng(0))


def test_scale_paired_translation():
    # domain shift by 1 on length-2, codomain shift by 2 on length-4
    g = make_group(
        {"group": "cyclic-translate", "shift": 1, "length": 2},
        {"group": "cyclic-translate", "shift": 2, "length": 4},
    )
    z = np.array([1.0, 2.0])
    x = np.array([10.0, 20.0, 30.0, 40.0])
    np.testing.assert_array_equal(g.apply_domain(1, z), [2.0, 1.0])
    np.testing.assert_array_equal(g.apply_codomain(1, x), [30.0, 40.0, 10.0, 20.0])
    assert g.order == 2


def test_codomain_inverse_axiom():
    g = make_group({"group": "permutation", "perm": [2, 0, 1]})
    x = np.random.default_rng(11).standard_normal(3)
    out = g.apply_codomain(1, g.apply_codomain(g.inverse(1), x))
    np.testing.assert_array_equal(out, x)


def test_autodiff_through_action_is_permutation_transpose():
    rng = np.random.default_rng(12)
    for name, (g, shape) in GROUPS.items():
        w = rng.standard_normal(shape)
        x = rng.standard_normal(shape)
        el = g.elements[-1]
        err = check_gradient(lambda t: tsum(mul(g.apply_domain(el, t), Tensor(w))), x)
        assert err < 1e-6, name


def test_traced_action_applies_same_permutation():
    g, shape = GROUPS["rot90"]
    x = np.random.default_rng(13).standard_normal(shape)
    traced = g.apply_domain(1, Tensor(x))
    np.testing.assert_array_equal(traced.data, g.apply_domain(1, x))


def _perm_power(perm, g):
    idx = np.arange(len(perm))
    for _ in range(g):
        idx = np.asarray(perm)[idx]
    return idx


# (spec, order, item shape, element g in closed form)
CLOSED_FORMS = [
    ({"group": "identity"}, 1, (5, 5), lambda x, g: x),
    ({"group": "flip-h"}, 2, (5, 6), lambda x, g: np.flip(x, axis=-1) if g else x),
    ({"group": "flip-v"}, 2, (5, 6), lambda x, g: np.flip(x, axis=-2) if g else x),
    ({"group": "rot90"}, 4, (3, 5, 5), lambda x, g: np.rot90(x, k=g, axes=(-2, -1))),
    ({"group": "cyclic-translate", "shift": 3, "length": 12}, 4, (2, 12),
     lambda x, g: np.roll(x, 3 * g, axis=-1)),
    ({"group": "cyclic-translate", "shift": -5, "length": 12}, 12, (12,),
     lambda x, g: np.roll(x, -5 * g, axis=-1)),
    ({"group": "cyclic-translate", "shift": 12, "length": 12}, 1, (12,), lambda x, g: x),
    # cycles of lengths 3 and 2: order 6
    ({"group": "permutation", "perm": [1, 2, 0, 4, 3]}, 6, (3, 5),
     lambda x, g: x[..., _perm_power([1, 2, 0, 4, 3], g)]),
]


@pytest.mark.parametrize("spec,order,shape,closed_form", CLOSED_FORMS,
                         ids=[str(spec) for spec, *_ in CLOSED_FORMS])
def test_every_element_matches_its_closed_form(spec, order, shape, closed_form):
    g = make_group(spec)
    assert g.order == order
    x = np.random.default_rng(14).standard_normal(shape)
    for el in g.elements:
        np.testing.assert_array_equal(g.apply_domain(el, x), closed_form(x, el), err_msg=f"{el}")
        np.testing.assert_array_equal(g.apply_domain(el, Tensor(x)).data, closed_form(x, el))
