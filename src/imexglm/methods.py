"""Built-in IMEX methods, the bundled additive Runge-Kutta comparators, and
the method resolver.

The order-4 and order-5 IMEX-DIMSIM pairs are stored exactly as published
(15 decimal digits), B blocks and starting weights included; loading does
not check them.  validate_method (and `imexglm validate-method`) confirms
that the printed B blocks and starting weights agree with the order
conditions to the precision those digits allow, and the test suite runs it
on every builtin GLM pair.

Additive Runge-Kutta (ARK/IMEX-RK) comparators are the one-value case of
the same ImexGlmMethod (tableau.additive_rk_pair).  Their coefficients are
not baked into code: they live in JSON data files (see data/) and are read,
like every method file, by tableau.load_method.  Two Kennedy-Carpenter
pairs, ARK4(3)6L[2]SA and ARK5(4)8L[2]SA, ship with the package; the JSON
is regenerated from exact rationals by scripts/make_ark_tables.py.
resolve_method turns every method name into a method.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

from .integrator import imex_euler_ark
from .tableau import (
    ImexGlmMethod,
    MethodFileError,
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


def _assemble(name, tab, r):
    return ImexGlmMethod(name=name, U=np.eye(r), **tab)


def builtin_imex_dimsim4() -> ImexGlmMethod:
    """Order-4 IMEX-DIMSIM pair (s = r = 4, c = [0, 1/3, 2/3, 1])."""
    return _assemble("imex-dimsim4", _DIMSIM4, 4)


def builtin_imex_dimsim5() -> ImexGlmMethod:
    """Order-5 IMEX-DIMSIM pair (s = r = 5, c = [0, 1/4, ..., 1]).

    The implicit part as published is not L-stable: evaluated in 50-digit
    arithmetic on these doubles, rho(M(z)) is 0.0526 at z = -1e4 and
    0.0527 at z = -1e8.  That floor belongs to the table, not to rounding.
    """
    return _assemble("imex-dimsim5", _DIMSIM5, 5)


def builtin_imex_euler() -> ImexGlmMethod:
    """IMEX Euler written as a one-stage, one-value GLM pair.

    Forward Euler explicit part, backward Euler implicit part; the external
    value carries y - h g so both parts fit the common square format.
    """
    c = np.array([0.0])
    A = np.zeros((1, 1))
    Ahat = np.ones((1, 1))
    return ImexGlmMethod(
        name="imex-euler", c=c, U=np.eye(1), v=np.array([1.0]),
        A=A, B=np.ones((1, 1)), Ahat=Ahat, Bhat=np.ones((1, 1)),
        Q=starting_weight_matrix(A, c, 1),        # [[1, 0]]
        Qhat=starting_weight_matrix(Ahat, c, 1),  # [[1, -1]]
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
    "imex-euler-ark": imex_euler_ark,
    "ark4": lambda: load_method(bundled_ark_path(4)),
    "ark5": lambda: load_method(bundled_ark_path(5)),
}


def resolve_method(spec: str) -> ImexGlmMethod:
    """Map a method name to a method: the one place a string becomes one.

    Accepts a builtin name (dimsim4, dimsim5, imex-euler, the starter pair
    imex-euler-ark, the bundled ARK comparators ark4 and ark5) or a path
    to a JSON file; files with a `sigma` field load as additive RK pairs,
    all others as GLM pairs.
    """
    if spec in BUILTIN_METHODS:
        return BUILTIN_METHODS[spec]()
    path = Path(spec)
    if not path.exists():
        raise MethodFileError(
            f"unknown method {spec!r}: not a builtin ({', '.join(sorted(BUILTIN_METHODS))}) "
            "and no such file"
        )
    return load_method(path)
