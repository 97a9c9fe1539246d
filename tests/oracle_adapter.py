"""The frozen oracles of reference_simple.py and reference_thermal.py, called
as the package is called: V is a float in every argument and every result.

The oracles take models whose pressure and entropy read V as a 1-tuple, and
states whose V is one.  TupleModel wraps a package model that way, and each
function below wraps its arguments the same way, calls the oracle of the
same name and maps each V[0] it returns back to a float.
"""

import reference_simple
import reference_thermal
from entropy_engine.simple import StatePoint
from entropy_engine.thermal import SplitResult, ThermalJoin


class TupleModel:
    """A float-V model as the 1-tuple model the oracles expect."""

    n = 1

    def __init__(self, model):
        self.model = model
        self.name, self.domain, self.kinks = model.name, model.domain, model.kinks
        self.pressure = lambda U, V: (model.pressure(U, V[0]),)
        self.entropy = (None if model.entropy is None
                        else lambda U, V: model.entropy(U, V[0]))

    def require_interior(self, X):
        self.model.require_interior(StatePoint(X.U, X.V[0]))

    def require_work_coordinates(self, V):
        self.model.require_work_coordinates(V[0])


def _tuple_state(X):
    return reference_simple.StatePoint(X.U, (X.V,))


def _float_state(X):
    return StatePoint(X.U, X.V[0])


def integrate_adiabat(model, X, waypoints, **kwargs):
    surface = reference_simple.integrate_adiabat(
        TupleModel(model), _tuple_state(X), [(v,) for v in waypoints], **kwargs)
    surface.base = X
    surface.samples = [_float_state(s) for s in surface.samples]
    return surface


def adiabat_energy_at(model, X, v_targets, **kwargs):
    return reference_simple.adiabat_energy_at(
        TupleModel(model), _tuple_state(X), [(v,) for v in v_targets], **kwargs)


def check_nesting(model, X, Y, probes=None, **kwargs):
    result = reference_simple.check_nesting(
        TupleModel(model), _tuple_state(X), _tuple_state(Y),
        None if probes is None else [(v,) for v in probes], **kwargs)
    return result._replace(probes=[v for (v,) in result.probes])


def thermal_split(join, U, V1, V2):
    split = reference_thermal.thermal_split(
        ThermalJoin(TupleModel(join.left), TupleModel(join.right)), U, (V1,), (V2,))
    return SplitResult(_float_state(split.X1), _float_state(split.X2),
                       split.total_entropy,
                       [_float_state(x) for x in split.alternatives])


def isotherm_state(model, V, T_target):
    state = reference_thermal.isotherm_state(TupleModel(model), (V,), T_target)
    return None if state is None else _float_state(state)
