"""Relation fixtures for the tests: explicit relations materialized from an
entropy assignment."""

from fractions import Fraction

from entropy_engine.relation import OracleRelation, Relation


def relation_from_oracle(spaces, sigma, universe, lambda_grid=(Fraction(1),)):
    """Materialize the oracle relation on an explicit universe of states.

    Every ordered pair inside `universe` that the entropy assignment admits
    becomes a fact; the result is closed under the structural rules restricted
    to that universe, so it is returned with the closed flag set.
    """
    oracle = OracleRelation(spaces, sigma, lambda_grid)
    universe = list(universe)
    facts = [(x, y) for x in universe for y in universe if oracle.accessible(x, y)]
    return Relation(spaces=dict(oracle.spaces), lambda_grid=oracle.lambda_grid,
                    facts=facts, closed=True)
