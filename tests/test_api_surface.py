"""The public signatures carry no numeric knobs: every check decides with
the constants of aarlcp.tolerances, and the inputs a result depends on
are required rather than recomputed when left out."""

import inspect

import aarlcp


def _public_callables():
    """(name, function) for every callable in aarlcp.__all__ and for the
    constructor and public methods of every class there."""
    for name in aarlcp.__all__:
        obj = getattr(aarlcp, name)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and (
                        attr == "__init__" or not attr.startswith("_")):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_walk_reaches_functions_and_methods():
    names = {name for name, _ in _public_callables()}
    assert {"solve_lp", "verify_affine_m", "AffineSolutionQ.support",
            "AffineSolutionM.support", "MarketBlockMap.__init__"} <= names


def test_no_tolerance_parameters():
    for name, func in _public_callables():
        for param in inspect.signature(func).parameters:
            assert param != "tol" and not param.endswith("_tol"), (name, param)


def test_required_inputs_have_no_default():
    empty = inspect.Parameter.empty
    outcome = inspect.signature(aarlcp.uniqueness_check_psd).parameters["outcome"]
    assert outcome.default is empty
    cand = inspect.signature(aarlcp.check_kernel_condition).parameters["cand"]
    assert cand.default is empty


def test_market_block_map_takes_only_its_layout():
    params = list(inspect.signature(aarlcp.MarketBlockMap).parameters)
    assert params == ["n_producers", "n_duals", "n_prices", "perm", "h"]
