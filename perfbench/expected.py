"""Pinned outputs of the seed library, the reference every run checks.

VERDICTS holds, per instance, the exit code of `verify all --json` and
each check's (name, status, scope) in report order.  A status or exit
code that differs is a failed operation; a scope that differs is only
counted (verify.scope_changed), so that a speed-up bought by a narrower
scope shows.  The Generic tower is a relabelled copy of line-3x6, so it
must reproduce line-3x6 exactly.

STEPS is the step log of `eta build --json`: "zero" or the planted
element.  WINDOWS is (level, zeros, ones, undefined) of the largest
window the kernels phase builds.
"""

VERDICTS = {
    'threeadic': {
        "exit": 0,
        "checks": [
            ('registry', 'Pass', "15 checks + aliases ['j-sub']"),
            ('decom', 'Pass', 'levels 0..10, tilings 55 pairs, enumerated where |D_j| <= 4194304'),
            ('j-recursion', 'Pass', 'n in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]'),
            ('per-eq', 'Pass', 'n in [1, 2, 3, 4, 5, 6, 7, 8, 9], window saturation + step-log rebuild + J-membership'),
            ('good-relation', 'Pass', '36 pairs, n+2 <= m <= 10'),
            ('good-patches', 'Pass', 'boundary pairs [(1, 4), (1, 9), (4, 9)]'),
            ('t1t2', 'Pass', 'boundary pairs [(1, 4), (1, 9), (4, 9)]'),
            ('partitions-c', 'Pass', 'k in [1, 2, 3, 4, 5, 6, 7, 8]'),
            ('linking', 'Inconclusive', 'completed blocks [0, 1, 2]; condition fails on some blocks, so linking-dependent statements are not testable here'),
            ('good-ds', 'Pass', 'n_k in [4, 9], every w in D_{n_k-1} minus identity'),
            ('u-in-y', 'Vacated', 'n_k in [1, 4], reps over D_(n_k+2); linking fails on some blocks (observed outcomes in witnesses)'),
            ('containings', 'Pass', 'pointwise parent rule, n up to 8'),
            ('z-identity', 'Pass', 'class algebra n=1..9; chains [(1, 4), (1, 9), (4, 9)]'),
            ('an-det', 'Pass', 'n = 1..10, det equals |D_n|'),
            ('uns-bound', 'Pass', '11 pairs, n in boundary levels, n+2 <= m <= 9'),
            ('measure-1-trend', 'Inconclusive', 'certified bounds are not monotone at this depth; the statement needs deeper construction to witness'),
        ],
    },
    'irregular-demo': {
        "exit": 0,
        "checks": [
            ('registry', 'Pass', "15 checks + aliases ['j-sub']"),
            ('decom', 'Pass', 'levels 0..5, tilings 10 pairs, enumerated where |D_j| <= 4194304'),
            ('j-recursion', 'Pass', 'n in [1, 2, 3, 4], over budget: [5]'),
            ('per-eq', 'Pass', 'n in [1, 2, 3], window saturation + step-log rebuild + J-membership; over cap: [4]'),
            ('good-relation', 'Pass', '2 pairs, n+2 <= m <= 5; over budget: [(1, 5), (2, 4), (2, 5), (3, 5)]'),
            ('good-patches', 'Pass', 'no boundary pairs with m <= depth-1 = 4; vacuous'),
            ('t1t2', 'Pass', 'no boundary pairs with m <= depth-1 = 4; vacuous'),
            ('partitions-c', 'Pass', 'k in [1, 2, 3]'),
            ('linking', 'Pass', 'completed blocks [0]'),
            ('good-ds', 'Pass', 'no boundary level n_k >= 2 within depth; vacuous'),
            ('u-in-y', 'Pass', 'n_k in [1], reps over D_(n_k+2)'),
            ('containings', 'Pass', 'pointwise parent rule, n up to 3; probe cost over budget: [3]'),
            ('z-identity', 'Pass', 'class algebra n=1..4; chains []'),
            ('an-det', 'Pass', 'n = 1..5, det equals |D_n|'),
            ('uns-bound', 'Pass', '2 pairs, n in boundary levels, n+2 <= m <= 4'),
            ('measure-1-trend', 'Pass', 'certified lower bounds at boundary levels [1, 16] are nondecreasing'),
        ],
    },
    'line-3x6': {
        "exit": 0,
        "checks": [
            ('registry', 'Pass', "15 checks + aliases ['j-sub']"),
            ('decom', 'Pass', 'levels 0..6, tilings 21 pairs, enumerated where |D_j| <= 4194304'),
            ('j-recursion', 'Pass', 'n in [1, 2, 3, 4, 5, 6]'),
            ('per-eq', 'Pass', 'n in [1, 2, 3, 4, 5], window saturation + step-log rebuild + J-membership'),
            ('good-relation', 'Pass', '10 pairs, n+2 <= m <= 6'),
            ('good-patches', 'Pass', 'boundary pairs [(1, 4)]'),
            ('t1t2', 'Pass', 'boundary pairs [(1, 4)]'),
            ('partitions-c', 'Pass', 'k in [1, 2, 3, 4]'),
            ('linking', 'Inconclusive', 'completed blocks [0, 1]; condition fails on some blocks, so linking-dependent statements are not testable here'),
            ('good-ds', 'Pass', 'n_k in [4], every w in D_{n_k-1} minus identity'),
            ('u-in-y', 'Vacated', 'n_k in [1], reps over D_(n_k+2); linking fails on some blocks (observed outcomes in witnesses)'),
            ('containings', 'Pass', 'pointwise parent rule, n up to 4'),
            ('z-identity', 'Pass', 'class algebra n=1..5; chains [(1, 4)]'),
            ('an-det', 'Pass', 'n = 1..6, det equals |D_n|'),
            ('uns-bound', 'Pass', '3 pairs, n in boundary levels, n+2 <= m <= 5'),
            ('measure-1-trend', 'Inconclusive', 'certified bounds are not monotone at this depth; the statement needs deeper construction to witness'),
        ],
    },
    'lattice-3x3x3': {
        "exit": 0,
        "checks": [
            ('registry', 'Pass', "15 checks + aliases ['j-sub']"),
            ('decom', 'Pass', 'levels 0..3, tilings 6 pairs, enumerated where |D_j| <= 4194304'),
            ('j-recursion', 'Pass', 'n in [1, 2, 3]'),
            ('per-eq', 'Pass', 'n in [1, 2], window saturation + step-log rebuild + J-membership'),
            ('good-relation', 'Pass', '1 pairs, n+2 <= m <= 3'),
            ('good-patches', 'Pass', 'no boundary pairs with m <= depth-1 = 2; vacuous'),
            ('t1t2', 'Pass', 'no boundary pairs with m <= depth-1 = 2; vacuous'),
            ('partitions-c', 'Pass', 'k in [1]'),
            ('linking', 'Inconclusive', 'completed blocks [0]; condition fails on some blocks, so linking-dependent statements are not testable here'),
            ('good-ds', 'Pass', 'no boundary level n_k >= 2 within depth; vacuous'),
            ('u-in-y', 'Inconclusive', 'depth 3 below n_k+4 for all blocks'),
            ('containings', 'Pass', 'pointwise parent rule, n up to 1'),
            ('z-identity', 'Pass', 'class algebra n=1..2; chains []'),
            ('an-det', 'Pass', 'n = 1..3, det equals |D_n|'),
            ('uns-bound', 'Inconclusive', '0 pairs, n in boundary levels, n+2 <= m <= 2'),
            ('measure-1-trend', 'Inconclusive', 'certified bounds are not monotone at this depth; the statement needs deeper construction to witness'),
        ],
    },
}

STEPS = {
    'threeadic': ['0', 'zero', '4', '14', 'zero', '121', '365', '1096', '3284', 'zero'],
    'irregular-demo': ['0', 'zero', '-232', '-14646', '-1860230'],
    'line-3x6': ['0', 'zero', '4', '14', 'zero', '121'],
    'lattice-3x3x3': ['0,0', 'zero', '0,4'],
}

WINDOWS = {
    'threeadic': (10, 35306, 22719, 1024),
    'irregular-demo': (4, 3472305, 248160, 0),
    'line-3x6': (6, 385, 280, 64),
    'lattice-3x3x3': (3, 135, 82, 512),
}
