"""The benchmark's workloads: their inputs, op lists and theory facts.

An op is ``(command, input)``.  An input is a bundled fixture name, a
ladder rung ``"A<n>"`` (the completed silting complex over linear A_n) or
``"A<n>-seed"`` (the rung's seed complex, the input of ``complete``).
"""


def intervals(n):
    """Dimension vectors of the indecomposables of linear A_n (Gabriel)."""
    return sorted([0] * i + [1] * (j - i) + [0] * (n - j)
                  for i in range(n) for j in range(i + 1, n + 1))


# Facts from theory about each input, never from this engine's output:
# number of simple modules, hereditary or not, tilting when known, and the
# dimension vectors of all indecomposable modules of the algebra.
FIXTURES = {
    # P1 + (P2 -> P1) is the APR tilting complex of A2.
    "a2_tilt": {"classes": 2, "hereditary": True, "tilting": True,
                "indecomposables": intervals(2)},
    # Hom(P3, P2) is nonzero, so the summands P3 and P2[1] rule out tilting.
    "a3_silt": {"classes": 3, "hereditary": True, "tilting": False,
                "indecomposables": intervals(3)},
    # Nakayama algebra with Kupisch series (3, 3): its indecomposables are
    # the six quotients e_i A / rad^k e_i A, k = 1, 2, 3.
    "paper_nakayama2": {"classes": 2, "hereditary": False, "tilting": None,
                        "indecomposables": sorted([[1, 0], [0, 1], [1, 1],
                                                   [1, 1], [1, 2], [2, 1]])},
}


def rung_facts(n):
    return {"classes": n, "hereditary": True, "tilting": None,
            "indecomposables": intervals(n)}


def facts(name):
    if name in FIXTURES:
        return FIXTURES[name]
    return rung_facts(int(name[1:].split("-")[0]))


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "structure": {
        "field": None,
        "ops": [("check", "a3_silt"), ("endo", "a3_silt"),
                ("check", "paper_nakayama2"), ("endo", "paper_nakayama2"),
                ("check", "A4"), ("endo", "A4"),
                ("check", "A5"), ("endo", "A5"),
                ("complete", "A4-seed"), ("complete", "A5-seed")],
    },
    "modules": {
        "field": None,
        "ops": [("ar", "a3_silt"), ("ar", "paper_nakayama2"), ("ar", "A4"),
                ("battery", "A4"), ("battery", "A5"),
                ("battery", "paper_nakayama2")],
    },
    "theorem": {
        "field": None,
        "ops": [("theorem", "a2_tilt"), ("theorem", "a3_silt"),
                ("theorem", "paper_nakayama2"), ("theorem", "A3")],
    },
    "rational": {
        "field": "Q",
        "ops": [("check", "a2_tilt"), ("endo", "a2_tilt"), ("ar", "a2_tilt"),
                ("complete", "a2_tilt"), ("check", "a3_silt"),
                ("check", "paper_nakayama2")],
    },
}

# Commands whose result depends on --seed, and commands reported as JSON.
SEEDED = ("ar", "battery", "theorem")
JSON_REPORT = ("battery", "theorem")
