"""Built-in IMEX methods and loading of additive Runge-Kutta comparators.

The order-4 and order-5 IMEX-DIMSIM pairs are stored exactly as published
(15 decimal digits), B blocks and starting weights included; loading does
not check them.  validate_method (and `imexglm validate-method`) confirms
that the printed B blocks and starting weights agree with the order
conditions to the precision those digits allow, and the test suite runs it
on every builtin GLM pair.

Additive Runge-Kutta (ARK/IMEX-RK) comparator coefficients are not baked
into code: they live in JSON data files (see data/) and are loaded through
load_ark_method.  Two Kennedy-Carpenter pairs, ARK4(3)6L[2]SA and
ARK5(4)8L[2]SA, ship with the package; the JSON is regenerated from exact
rationals by scripts/make_ark_tables.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .tableau import (
    GlmTableau,
    ImexGlmMethod,
    MethodFileError,
    _readonly,
    load_method,
    starting_weight_matrix,
)

_DIMSIM4_LAMBDA = 0.572816062482135
_DIMSIM5_LAMBDA = 0.278053841136452

_DIMSIM4 = {
    "c": [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0],
    "A": [
        [0.0, 0.0, 0.0, 0.0],
        [0.258897065974412, 0.0, 0.0, 0.0],
        [2.729801825357062, -0.060004247312668, 0.0, 0.0],
        [0.951308318232761, 0.614160494289040, 0.422498793609078, 0.0],
    ],
    "B": [
        [5.669708110906782, -0.493235358869745, 0.021475944586626, 0.175951726795284],
        [5.544708110906782, 0.020653530019144, -0.797968499857818, 0.680943549709761],
        [4.720814974705226, 3.191226074825372, -5.227438428178271, 0.686166890688894],
        [4.848863779632135, 2.337640759837926, -3.218585217497575, 0.418013495315584],
    ],
    "Q": [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.074436267358921, 0.055555555555556, 0.006172839506173, 0.000514403292181],
        [1.0, -2.003130911377728, 0.242223637993112, 0.052716285344531, 0.008600849263247],
        [1.0, -0.987967606130879, 0.013613972830935, 0.038658018404147, 0.017011414548385],
    ],
    "Ahat": [
        [_DIMSIM4_LAMBDA, 0.0, 0.0, 0.0],
        [0.294478591621391, _DIMSIM4_LAMBDA, 0.0, 0.0],
        [3.754531024312379, -0.446626145372372, _DIMSIM4_LAMBDA, 0.0],
        [20.906355951077522, -6.918033573971423, 0.824272703722306, _DIMSIM4_LAMBDA],
    ],
    "Bhat": [
        [2.818382755109841, -0.107847984112942, 1.213319973963157, -0.548700992864529],
        [3.266198817591976, -1.885223345152593, 3.830771904411522, -1.797738883043436],
        [3.774131970777119, -3.469139895411032, 5.100995462482731, -4.672071998026633],
        [1.800600620848989, 6.203817506581311, -13.407704583723200, -5.034154872439978],
    ],
    "Qhat": [
        [1.0, -0.572816062482135, 0.0, 0.0, 0.0],
        [1.0, -0.533961320770192, -0.135383131938489, -0.025650275076168, -0.003021498328079],
        [1.0, -3.214054274755475, -0.010779770975077, -0.053097178648182, -0.017299808772539],
        [1.0, -14.385411143310540, 1.683679993026802, 0.081422122041277, -0.051803591005091],
    ],
    "v": [0.281364340879037, -1.282889560784121, 2.266595749735792, -0.265070529830707],
}

_DIMSIM5 = {
    "c": [0.0, 0.25, 0.5, 0.75, 1.0],
    "A": [
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.380631951399918, 0.0, 0.0, 0.0, 0.0],
        [-0.723344119927179, 0.934338548518619, 0.0, 0.0, 0.0],
        [-0.292421654731536, 1.489386717103117, 0.229042913082062, 0.0, 0.0],
        [10.333193352608074, 0.200217292186561, 0.841800685401247, -0.148918889975160, 0.0],
    ],
    "B": [
        [-1.811278483713069, 2.072219536433343, 0.130011155311711, 0.166279568600910, 0.117403740739418],
        [-1.724125705935292, 1.629858425322231, 1.038344488645044, -0.796914875843534, 0.396841233783945],
        [-1.998394810009466, 3.088356723470882, -2.146707663207811, 2.854109498231544, -0.833722659704275],
        [-1.361504766226497, 0.334933035918415, 2.154212895587752, 0.353113262914561, -1.482126886275562],
        [5.091061924499312, -29.458910962376240, 55.143920860593482, -43.440447985319850, 3.112719239754878],
    ],
    "Q": [
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, -0.130631951399918, 0.031250000000000, 0.002604166666667, 0.000162760416667, 0.000008138020833],
        [1.0, 0.289005571408560, -0.108584637129655, -0.008364746307874, 0.000170993363233, 0.000108343335202],
        [1.0, -0.676007975453643, -0.205618135816810, -0.004861199044730, 0.004533255151668, 0.001138659940362],
        [1.0, -10.226292440220721, 0.140734501734106, 0.097068228416195, 0.034078612640450, 0.008071842745668],
    ],
    "Ahat": [
        [_DIMSIM5_LAMBDA, 0.0, 0.0, 0.0, 0.0],
        [0.220452276182580, _DIMSIM5_LAMBDA, 0.0, 0.0, 0.0],
        [2.294819895736366, -0.602366708071285, _DIMSIM5_LAMBDA, 0.0, 0.0],
        [5.054620901153854, -1.529876218309763, 0.097119141498823, _DIMSIM5_LAMBDA, 0.0],
        [9.345167780108133, -1.412133513099773, -1.883401998517870, 0.782533955446870, _DIMSIM5_LAMBDA],
    ],
    "Bhat": [
        [6.044855283302179, -2.020000467205476, 0.032934533641225, 0.593578985923315, -0.226664851205853],
        [5.853954219943505, -1.072092372634326, -1.839270544389963, 2.410922952843391, -0.899263047489796],
        [6.004175007913425, -2.014097375842605, 0.610845429880394, -0.963490004887004, -0.405182760273902],
        [6.002703177071046, -2.556003283230891, 3.151551366098853, -5.493514217893924, 0.448102618067392],
        [4.481882795290198, 2.672564354868939, -1.413660973235832, -8.058154793746990, 0.909905877341711],
    ],
    "Qhat": [
        [1.0, -0.278053841136452, 0.0, 0.0, 0.0, 0.0],
        [1.0, -0.248506117319032, -0.038263460284113, -0.006085015868847, -0.000561338127960, -0.000037118138206],
        [1.0, -1.470507028801533, 0.136564756449595, 0.004900562818504, -0.001619958388074, -0.000365640421568],
        [1.0, -3.149917665479366, 0.406619102975690, 0.027778596315200, -0.004406329750951, -0.001692120959916],
        [1.0, -6.110220065073812, 0.929780069812273, 0.087106493228110, -0.016782586272280, -0.008434321001423],
    ],
    "v": [-0.079385465132435, 0.554317572910577, -1.569589549144155, 2.332074592443682, -0.237417151077669],
}


def _assemble(name, tab, p):
    c = np.array(tab["c"])
    s = c.size
    U = np.eye(s)
    V = np.outer(np.ones(s), np.array(tab["v"]))
    return ImexGlmMethod(
        name=name,
        explicit=GlmTableau(A=tab["A"], U=U, B=tab["B"], V=V, c=c),
        implicit=GlmTableau(A=tab["Ahat"], U=U, B=tab["Bhat"], V=V, c=c),
        v=np.array(tab["v"]),
        Q=np.array(tab["Q"]),
        Qhat=np.array(tab["Qhat"]),
        p=p, q=p,
    )


def builtin_imex_dimsim4() -> ImexGlmMethod:
    """Order-4 IMEX-DIMSIM pair (s = r = p = q = 4, c = [0, 1/3, 2/3, 1])."""
    return _assemble("imex-dimsim4", _DIMSIM4, 4)


def builtin_imex_dimsim5() -> ImexGlmMethod:
    """Order-5 IMEX-DIMSIM pair (s = r = p = q = 5, c = [0, 1/4, ..., 1])."""
    return _assemble("imex-dimsim5", _DIMSIM5, 5)


def builtin_imex_euler() -> ImexGlmMethod:
    """IMEX Euler written as a one-stage, one-value GLM pair.

    Forward Euler explicit part, backward Euler implicit part; the external
    value carries y - h g so both parts fit the common square format.
    """
    c = np.array([0.0])
    U = np.eye(1)
    V = np.ones((1, 1))
    A = np.zeros((1, 1))
    Ahat = np.ones((1, 1))
    return ImexGlmMethod(
        name="imex-euler",
        explicit=GlmTableau(A=A, U=U, B=np.ones((1, 1)), V=V, c=c),
        implicit=GlmTableau(A=Ahat, U=U, B=np.ones((1, 1)), V=V, c=c),
        v=np.array([1.0]),
        Q=starting_weight_matrix(A, c, 1),        # [[1, 0]]
        Qhat=starting_weight_matrix(Ahat, c, 1),  # [[1, -1]]
        p=1, q=1,
    )


@dataclass(frozen=True)
class ImexRkMethod:
    """Additive (IMEX) Runge-Kutta pair with shared abscissae.

    Stage i combines explicit coupling A_explicit (strictly lower) for the
    nonstiff part with lower-triangular A_implicit for the stiff part; the
    update uses the two weight vectors.
    """

    name: str
    c: np.ndarray           # (sigma,)
    A_explicit: np.ndarray  # (sigma, sigma)
    b_explicit: np.ndarray  # (sigma,)
    A_implicit: np.ndarray  # (sigma, sigma)
    b_implicit: np.ndarray  # (sigma,)

    def __post_init__(self):
        for name in ("c", "A_explicit", "b_explicit", "A_implicit", "b_implicit"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def sigma(self) -> int:
        return self.c.size


_ARK_ABSCISSAE_TOL = 1e-10


def load_ark_method(path) -> ImexRkMethod:
    """Load an additive RK pair from a JSON coefficient file.

    Numbers may be decimal strings or plain JSON numbers.  The stated
    abscissae must match the row sums of both coupling matrices; a mismatch
    is rejected naming the offending stage, since silently inconsistent
    stage times is the classic transcription failure for these tables.
    """
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MethodFileError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise MethodFileError(f"{path}: expected a JSON object")
    required = ["sigma", "c", "A_explicit", "b_explicit", "A_implicit", "b_implicit"]
    missing = [k for k in required if k not in d]
    if missing:
        raise MethodFileError(f"{path}: ARK file missing fields: {missing}")
    try:
        sigma = int(d["sigma"])
    except (TypeError, ValueError) as exc:
        raise MethodFileError("sigma must be an integer") from exc

    def arr(key, shape):
        try:
            a = np.array(d[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise MethodFileError(f"field {key!r} is not numeric") from exc
        if a.shape != shape:
            raise MethodFileError(f"field {key!r} has shape {a.shape}, expected {shape}")
        return a

    c = arr("c", (sigma,))
    Ae = arr("A_explicit", (sigma, sigma))
    be = arr("b_explicit", (sigma,))
    Ai = arr("A_implicit", (sigma, sigma))
    bi = arr("b_implicit", (sigma,))

    if sigma > 1:
        if np.abs(Ae[np.triu_indices(sigma, k=0)]).max() > 0:
            raise MethodFileError("A_explicit must be strictly lower triangular")
        if np.abs(Ai[np.triu_indices(sigma, k=1)]).max() > 0:
            raise MethodFileError("A_implicit must be lower triangular")
    for label, A in (("explicit", Ae), ("implicit", Ai)):
        rowsum = A.sum(axis=1)
        bad = np.nonzero(np.abs(rowsum - c) > _ARK_ABSCISSAE_TOL)[0]
        if bad.size:
            i = int(bad[0])
            raise MethodFileError(
                f"{label} abscissae mismatch at stage {i}: "
                f"row sum {rowsum[i]!r} vs c[{i}]={c[i]!r}"
            )
    return ImexRkMethod(
        name=str(d.get("name", Path(path).stem)),
        c=c, A_explicit=Ae, b_explicit=be, A_implicit=Ai, b_implicit=bi,
    )


def bundled_ark_path(order: int) -> Path:
    """Filesystem path of a shipped ARK comparator file (order 4 or 5)."""
    fname = {4: "ark436.json", 5: "ark548.json"}.get(order)
    if fname is None:
        raise ValueError("bundled ARK comparators exist for orders 4 and 5")
    return Path(resources.files("imexglm").joinpath("data", fname))


BUILTIN_METHODS = {
    "dimsim4": builtin_imex_dimsim4,
    "dimsim5": builtin_imex_dimsim5,
    "imex-euler": builtin_imex_euler,
}


_ARK_ALIASES = {"ark4": 4, "ark5": 5}


def resolve_method(spec: str):
    """Map a CLI method spec to a method object.

    Accepts a builtin name (dimsim4, dimsim5, imex-euler), an alias of a
    bundled ARK comparator (ark4, ark5) or a path to a JSON file; files
    with a `sigma` field load as additive RK pairs, all others as GLM pairs.
    """
    if spec in BUILTIN_METHODS:
        return BUILTIN_METHODS[spec]()
    if spec in _ARK_ALIASES:
        return load_ark_method(bundled_ark_path(_ARK_ALIASES[spec]))
    path = Path(spec)
    if not path.exists():
        raise MethodFileError(
            f"unknown method {spec!r}: not a builtin ({', '.join(sorted(BUILTIN_METHODS))}) "
            "and no such file"
        )
    with open(path) as fh:
        try:
            head = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MethodFileError(f"{path}: not valid JSON ({exc})") from exc
    if isinstance(head, dict) and "sigma" in head:
        return load_ark_method(path)
    return load_method(path)
