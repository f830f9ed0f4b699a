"""Emotion conditioning blocks of the synthesis pipeline.

Every synthesizer variant adds `tts.condition`'s row u = [u_emo; one-hot
speaker] to its decoded mel as u · dec_wc; two of them also inject u through
a learned block on the autodiff Tensor graph here (weights in `tts`'s layout):

  * "vits": an invertible affine coupling flow on explicit channel halves:
    the caller passes the half that goes through and the half to transform,
    whose scale/shift come from a gated conditioner network fed with the
    first half and the condition,
  * "fastspeech": a learned condition bias on the encoder state, h + u W,
    one matrix W (`att_w`) from the condition to the text features.

The third variant, "tacotron", concatenates u onto every frame in
`tts._condition_graph` and has no weights of its own.
"""

LOG_S_LIMIT = 5.0


# ---------------------------------------------------------------------------
# Affine coupling flow
# ---------------------------------------------------------------------------

def coupling_block_shapes(d, cond_dim, gate):
    half = d // 2
    return {
        "cond_proj": (cond_dim, half),
        "ewn_wf": (half, gate),
        "ewn_bf": (gate,),
        "ewn_wg": (half, gate),
        "ewn_bg": (gate,),
        "ewn_wo": (gate, d),
        "ewn_bo": (d,),
    }


def ewn_graph(blocks, x_t):
    """Gated conditioner: z = tanh(Wf x) * sigmoid(Wg x); Wo z splits into
    (log_s, b). log_s is clamped so exp() stays tame either direction."""
    z = (x_t @ blocks["ewn_wf"] + blocks["ewn_bf"]).tanh() \
        * (x_t @ blocks["ewn_wg"] + blocks["ewn_bg"]).sigmoid()
    out = z @ blocks["ewn_wo"] + blocks["ewn_bo"]
    half = out.data.shape[1] // 2
    log_s = out[:, :half].clip(-LOG_S_LIMIT, LOG_S_LIMIT)
    b = out[:, half:]
    return log_s, b


def coupling_graph(blocks, h0, h1, u_t, inverse=False):
    """Affine coupling on Tensors. h0, one half of the channels, passes
    through untouched and, shifted by the projected condition, drives
    the scale/shift applied to the other half h1: h1' = exp(log_s) * h1 + b,
    and with inverse=True h1 = (h1' - b) * exp(-log_s). Returns
    (h1_out, log_s); log_s.sum() is the forward direction's log-determinant."""
    log_s, b = ewn_graph(blocks, h0 + u_t @ blocks["cond_proj"])
    if inverse:
        return (h1 - b) * (-log_s).exp(), log_s
    return log_s.exp() * h1 + b, log_s


# ---------------------------------------------------------------------------
# Condition bias (the fastspeech variant)
# ---------------------------------------------------------------------------

def attention_graph(blocks, h_t, u_t):
    """Condition bias: h + u W, the same row added to every character.

    u W is linear in u, so a single matrix spans every map that a chain of
    projections with no nonlinearity between them could express."""
    return h_t + u_t @ blocks["att_w"]
