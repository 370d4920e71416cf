"""The dict form of a model: the oracle that the streamed model file is
checked against."""

from fedvra.network import ModelParams


def params_to_dict(params: ModelParams) -> dict:
    """JSON-ready dict with row-major weight lists at full precision."""
    return {
        "hidden_size": params.hidden_size,
        "w1": params.w1.tolist(),
        "b1": params.b1.tolist(),
        "w2": params.w2.tolist(),
        "b2": params.b2,
    }
