"""The benchmark's span tracer wraps library functions by name; a renamed
function must fail here rather than break a traced benchmark run."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from mdl.gallagher import ApproxFunction, FibreContext, PsiPrime
from mdl.realnum import RealParam

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(mod, attr):
    owner = importlib.import_module(f"mdl.{mod}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_target_resolves_and_is_restored():
    tracing = _tracing()
    original = {(mod, attr): _target(mod, attr) for mod, attr, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for key, fn in original.items():
            assert _target(*key) is not fn, key
        since = tracer.mark()
        pp = PsiPrime(ApproxFunction.over_q(Fraction(1, 4)), RealParam.sqrt(2),
                      RealParam.rational(0), Fraction(1, 2))
        ctx = FibreContext(pp)
        ctx.psi_prime(4)
        ctx.support_state(4)
        ctx.cell_of(4)
        spans = tracer.summary(since)
        for name in ("psi_prime", "support_state", "cell_of"):
            assert spans[f"gallagher.FibreContext.{name}"]["calls"] == 1
    finally:
        tracer.uninstall()
    for key, fn in original.items():
        assert _target(*key) is fn, key
