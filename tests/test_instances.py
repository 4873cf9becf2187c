"""File format round-trips, parse diagnostics, random generator."""

from dataclasses import replace

import numpy as np
import pytest

from aarlcp import (
    AffineSolutionM,
    AffineSolutionQ,
    InstanceFormatError,
    MarketModel,
    UncertainLcpM,
    UncertainLcpQ,
    generate_random,
    is_psd,
    parse_instance,
    serialize_instance,
)

from conftest import is_p_matrix

UQ_TEXT = """\
kind uncertain-q
n 2
h 0
m
1 2
3 4
qbar
-1 -2
ubar
0.5 0
"""


def _round_trip(obj):
    return parse_instance(serialize_instance(obj))


def test_uncertain_q_parse():
    inst = parse_instance(UQ_TEXT)
    assert isinstance(inst, UncertainLcpQ)
    assert np.array_equal(inst.m, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(inst.qbar, [-1.0, -2.0])
    assert np.array_equal(inst.ubar, [0.5, 0.0])
    assert inst.h == 0


def test_comments_and_blank_lines_ignored():
    text = "# robust q data\n\nkind uncertain-q  # header\n" + UQ_TEXT.split("\n", 1)[1]
    a, b = parse_instance(text), parse_instance(UQ_TEXT)
    assert np.array_equal(a.m, b.m) and np.array_equal(a.qbar, b.qbar)


def test_round_trip_hostile_floats():
    # values that lose digits under naive %g formatting
    m = np.array([[0.1 + 0.2, 1e-17], [-3.0, 12345678901234.567]])
    inst = UncertainLcpQ(m=m, qbar=np.array([1 / 3, -2 / 7]),
                         ubar=np.array([5e-324, 0.0]), h=1)
    back = _round_trip(inst)
    assert np.array_equal(back.m, inst.m)
    assert np.array_equal(back.qbar, inst.qbar)
    assert np.array_equal(back.ubar, inst.ubar)
    assert back.h == 1


def test_round_trip_uncertain_m():
    inst = UncertainLcpM(
        m0=np.array([[4.0, 1.0], [0.0, 4.0]]),
        perturbations=[np.array([[0.0, 1.0], [0.0, 0.0]]),
                       np.array([[1 / 3, 0.0], [0.0, -1 / 3]])],
        q=np.array([-8.0, -16.0]), h=0)
    back = _round_trip(inst)
    assert isinstance(back, UncertainLcpM)
    assert np.array_equal(back.m0, inst.m0)
    assert len(back.perturbations) == 2
    for got, want in zip(back.perturbations, inst.perturbations):
        assert np.array_equal(got, want)
    assert np.array_equal(back.q, inst.q)


def test_round_trip_market_with_options():
    mm = MarketModel(
        costs=[1.0, 2.0], technology=[[1.0, 1.0]], capacity=[-10.0],
        demand_matrix=[[1.0, 1.0]], sensitivity=[[-1.0]], demand=[5.0],
        demand_halfwidth=[0.5], nonadjustable_producers=(1,),
        adjustable_duals=False)
    text = serialize_instance(mm)
    assert "nonadjustable-producers 2" in text  # written 1-based
    assert "adjustable-duals false" in text
    assert "adjustable-prices" not in text  # default stays implicit
    back = parse_instance(text)
    assert isinstance(back, MarketModel)
    assert back.nonadjustable_producers == (1,)
    assert back.adjustable_duals is False and back.adjustable_prices is True
    assert np.array_equal(back.sensitivity, mm.sensitivity)
    fixed_prices = replace(mm, adjustable_prices=False)
    text = serialize_instance(fixed_prices)
    assert "adjustable-prices false" in text
    back = parse_instance(text)
    assert back.adjustable_prices is False and back.adjustable_duals is False


def test_round_trip_solutions():
    sq = AffineSolutionQ(d=np.array([[0.0, 0.5], [1 / 3, 0.0]]),
                         r=np.array([2.0, 0.1]))
    back = _round_trip(sq)
    assert isinstance(back, AffineSolutionQ)
    assert np.array_equal(back.d, sq.d) and np.array_equal(back.r, sq.r)

    sm = AffineSolutionM(d=np.array([[-1.0], [0.0]]), r=np.array([1.0, 4.0]))
    back = _round_trip(sm)
    assert isinstance(back, AffineSolutionM)
    assert np.array_equal(back.d, sm.d) and np.array_equal(back.r, sm.r)


def test_parse_diagnostics_carry_line_numbers():
    with pytest.raises(InstanceFormatError, match="line 1: empty file"):
        parse_instance("# only a comment\n\n")
    with pytest.raises(InstanceFormatError, match="unknown kind 'mystery'"):
        parse_instance("kind mystery\n")
    with pytest.raises(InstanceFormatError, match="line 11: unexpected trailing"):
        parse_instance(UQ_TEXT + "stray 1 2\n")
    with pytest.raises(InstanceFormatError, match="line 5: malformed number"):
        parse_instance(UQ_TEXT.replace("1 2\n3 4", "1 two\n3 4"))
    with pytest.raises(InstanceFormatError, match="line 5: expected 2 numbers, got 3"):
        parse_instance(UQ_TEXT.replace("1 2\n3 4", "1 2 9\n3 4"))
    with pytest.raises(InstanceFormatError, match="'n' needs an integer"):
        parse_instance(UQ_TEXT.replace("n 2", "n two"))
    with pytest.raises(InstanceFormatError, match="unexpected end of file"):
        parse_instance(UQ_TEXT.rsplit("\n", 3)[0])
    with pytest.raises(InstanceFormatError, match="expected section 'qbar'"):
        parse_instance(UQ_TEXT.replace("qbar", "qvec"))
    with pytest.raises(InstanceFormatError, match="line 2: n must be at least 1"):
        parse_instance("kind uncertain-q\nn 0\n")
    with pytest.raises(InstanceFormatError, match="line 2: expected 'n <value>', got 'n 2 3'"):
        parse_instance(UQ_TEXT.replace("n 2", "n 2 3"))
    um_text = "kind uncertain-m\nn 1\nk 1\nh 0\nm0\n2\nperturbation 1\n0.5\nq\n-1\n"
    parse_instance(um_text)
    with pytest.raises(InstanceFormatError,
                       match="line 7: expected 'perturbation 1', got 'perturbation 2'"):
        parse_instance(um_text.replace("perturbation 1", "perturbation 2"))
    mk_text = serialize_instance(MarketModel(
        costs=[1.0, 2.0], technology=[[1.0, 1.0]], capacity=[-10.0],
        demand_matrix=[[1.0, 1.0]], sensitivity=[[-1.0]], demand=[5.0],
        demand_halfwidth=[0.5]))
    assert len(mk_text.splitlines()) == 18
    with pytest.raises(InstanceFormatError,
                       match="line 19: 'adjustable-duals' must be true or false"):
        parse_instance(mk_text + "adjustable-duals maybe\n")
    with pytest.raises(InstanceFormatError,
                       match="line 19: producer indices must be integers"):
        parse_instance(mk_text + "nonadjustable-producers 1 two\n")
    # one malformed section per kind
    broken = {
        "line 6: expected 1 numbers, got 2":
            um_text.replace("m0\n2\n", "m0\n2 3\n"),
        "line 9: expected section 'q'": um_text.replace("q\n-1", "qq\n-1"),
        "line 7: expected section 'technology'":
            mk_text.replace("technology", "tech"),
        "line 12: expected 2 numbers, got 1":
            mk_text.replace("demand-matrix\n1 1\n", "demand-matrix\n1\n"),
        "line 6: malformed number":
            "kind solution-q\nn 1\nr\n1\nd\none\n",
        "line 6: unexpected end of file":
            "kind solution-m\nn 1\nk 2\nr\n1\nd\n",
        "line 3: k must be at least 1":
            "kind solution-m\nn 1\nk 0\nr\n1\nd\n1\n",
    }
    for message, text in broken.items():
        with pytest.raises(InstanceFormatError, match=message):
            parse_instance(text)


def test_serialize_inverts_parse_on_every_kind():
    texts = [generate_random(kind, n=n, k=k, h=h, seed=10 * n + h, regime=regime)
             for kind in ("uncertain-q", "uncertain-m", "market")
             for n in (1, 2, 5, 8) for k in (1, 3) for h in (0, 1)
             for regime in ("general", "psd", "pmatrix")
             if not (kind == "market" and regime == "pmatrix")]
    rng = np.random.default_rng(5)
    for n in (1, 2, 6):
        for k in (1, 4):
            scale = 10.0 ** rng.integers(-300, 300)
            texts.append(serialize_instance(AffineSolutionQ(
                d=scale * rng.normal(size=(n, n)), r=rng.normal(size=n))))
            texts.append(serialize_instance(AffineSolutionM(
                d=rng.normal(size=(n, k)), r=scale * rng.normal(size=n))))
    assert len({t.split("\n", 1)[0] for t in texts}) == 5
    for text in texts:
        assert serialize_instance(parse_instance(text)) == text


def test_non_finite_solution_entries_are_format_errors():
    texts = {"solution-q": "kind solution-q\nn 1\nr\n{r}\nd\n{d}\n",
             "solution-m": "kind solution-m\nn 1\nk 1\nr\n{r}\nd\n{d}\n"}
    for text in texts.values():
        parse_instance(text.format(r="1", d="1"))
        for r, d in (("nan", "1"), ("1", "inf")):
            with pytest.raises(InstanceFormatError, match="non-finite"):
                parse_instance(text.format(r=r, d=d))


def test_errors_are_value_errors():
    # callers that only know ValueError still catch format problems
    assert issubclass(InstanceFormatError, ValueError)


def test_serialize_rejects_foreign_types():
    with pytest.raises(TypeError, match="cannot serialize dict"):
        serialize_instance({"kind": "uncertain-q"})


def test_generator_deterministic():
    for kind in ("uncertain-q", "uncertain-m", "market"):
        a = generate_random(kind, n=4, k=2, h=1, seed=123)
        b = generate_random(kind, n=4, k=2, h=1, seed=123)
        assert a == b
        assert a != generate_random(kind, n=4, k=2, h=1, seed=124)
        parse_instance(a)  # generated text must parse


def test_generator_regimes():
    for seed in range(6):
        psd = parse_instance(generate_random("uncertain-q", n=5, seed=seed,
                                             regime="psd"))
        assert is_psd(psd.m)
        pm = parse_instance(generate_random("uncertain-q", n=5, seed=seed,
                                            regime="pmatrix"))
        assert is_p_matrix(pm.m)


def test_generator_market_shape():
    mm = parse_instance(generate_random("market", n=6, k=2, h=2, seed=5))
    assert isinstance(mm, MarketModel)
    assert mm.n_producers == 6 and mm.n_prices == 2
    assert mm.nonadjustable_producers == (0, 1)


def test_generator_bounds():
    with pytest.raises(ValueError):
        generate_random("uncertain-q", n=0)
    with pytest.raises(ValueError):
        generate_random("uncertain-q", n=51)
    with pytest.raises(ValueError):
        generate_random("uncertain-q", n=3, h=4)
    with pytest.raises(ValueError):
        generate_random("market", n=3, regime="pmatrix")
    with pytest.raises(ValueError):
        generate_random("solution-q", n=3)
    for k in (0, 51):
        with pytest.raises(ValueError, match=r"k must lie in \[1, 50\]"):
            generate_random("uncertain-m", n=3, k=k)
    with pytest.raises(ValueError, match="unknown regime 'dense'"):
        generate_random("uncertain-q", n=3, regime="dense")
