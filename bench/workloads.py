"""The three benchmark workloads.

Each workload is a closed loop: one client issues the next call only after
the previous one returned.  A run repeats whole rounds; every round starts
from a fresh import of artinmark (so every cache is cold, as for a CLI call
in a new process) and issues the same kinds and numbers of calls.  Inputs
are plain text made from the seed by the benchmark; the program only ever
sees the generated payloads.

`lib` below is the freshly imported artinmark package; its names are looked
up at call time, so in a traced run the wrapped functions are called.

A workload provides:
    specs        type specs whose contexts make up the set-up
    cycle        rounds r and r + cycle work on the same elements
    min_rounds   rounds every run makes, however long they take
    prepare(lib)                      plain data derived once per process
    make_round(rng, data, index)      the inputs of round `index`
    run_round(lib, inputs, rec)       the timed calls; returns their outputs
    check_round(lib, inputs, outputs) independent checks, untimed
    latency(rec)                      op_p50_ms and op_tail_ms, in seconds
    extra_metrics(rec)                workload-specific figures, by name
"""

from __future__ import annotations

import io
import json
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout

from checks import CheckFailed, Weyl, require


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[int(rank) - 1]


def percentile_latency(workload, rec):
    """Median and tail (workload.tail_pct) of the workload's headline call."""
    head = rec.samples[workload.headline]
    if not head:
        return float("nan"), float("nan")
    return statistics.median(head), percentile(head, workload.tail_pct)


def _gens_of(names) -> frozenset[int]:
    if isinstance(names, str):
        names = [n for n in names.split(",") if n]
    return frozenset(int(n[1:]) - 1 for n in names)


def _with_text(element):
    return element, element.to_text()


def _word_text(letters) -> str:
    return " ".join(f"s{i + 1}" + ("^-1" if sign < 0 else "") for i, sign in letters)


def core_rng(workload, round_index: int) -> random.Random:
    """The stream that fixes the elements of a round.  It does not depend on
    the seed: the elements cycle with the workload's period, so every run of
    every seed does the same searches (see the class docstrings)."""
    return random.Random(f"{workload.name}/{round_index % workload.cycle}")


def rewrite_commuting(letters, weyl: Weyl, rng: random.Random) -> list:
    """Another word for the same element: seeded swaps of adjacent letters
    whose generators commute (distinct and not joined in the diagram)."""
    letters = list(letters)
    for _ in range(2 * len(letters)):
        p = rng.randrange(len(letters) - 1)
        (a, _), (b, _) = letters[p], letters[p + 1]
        if a != b and b not in weyl.adj[a]:
            letters[p], letters[p + 1] = letters[p + 1], letters[p]
    return letters


# ---------------------------------------------------------------------------


class Markings:
    """std-connectivity on A3, bfs --radius 2 from every A3 standard-transversal
    marking and bfs --radius 1 from every B3 one.  The work is fixed by the
    types: the seed is accepted and not used, so every round repeats the
    same calls and prints the same bytes.

    std-connectivity on B3 is left out: it is one call of 30 to 45 s, so a
    run could hold only one sample of it, and the machine's speed over one
    such stretch decides the figure (ten runs spread 0.25 of their median).
    The shorter rounds here repeat at least three times in a run.  The
    first round is checked in full; a later round must print the very same
    bytes."""

    name = "markings"
    specs = ("A3", "B3")
    min_rounds = 3
    cycle = 1
    n_seeds = 5  # standard-transversal markings of A3, and of B3

    def __init__(self):
        self.verified = None  # the outputs of the fully checked round

    def prepare(self, lib):
        seeds = {}
        for spec in self.specs:
            ctx = lib.context(spec)
            seeds[spec] = [json.dumps(lib.standard_transversals(s).to_json(), sort_keys=True)
                           for s in lib.enumerate_maximal_standard(ctx)]
            require(len(seeds[spec]) == self.n_seeds, f"{spec}: standard-transversal markings")
        return seeds

    def make_round(self, rng, data, round_index):
        return data

    def run_round(self, lib, inputs, rec):
        # A3 connectivity warms the A3 caches for every A3 bfs call; the A3
        # bfs calls sit on both sides of the B3 calls, so their median does
        # not hang on one short stretch of the machine's speed
        def bfs(spec, radius, j, family):
            payload = inputs[spec][j]
            argv = ["--type", spec, "--format", "json", "--radius", str(radius), "bfs", payload]
            return ("bfs", spec, radius, payload, rec.cli(lib, family, argv))

        out = rec.cli(lib, "conn", ["--type", "A3", "--format", "json", "std-connectivity"])
        outputs = [("conn", "A3", None, None, out)]
        outputs += [bfs("A3", 2, j, f"bfs.{j}") for j in range(2)]
        outputs += [bfs("B3", 1, j, "b3_bfs") for j in range(self.n_seeds)]
        outputs += [bfs("A3", 2, j, f"bfs.{j}") for j in range(2, self.n_seeds)]
        return outputs

    def check_round(self, lib, inputs, outputs):
        if self.verified is not None:
            require(outputs == self.verified, "outputs differ from the first round")
            return
        for kind, spec, radius, payload, out in outputs:
            if out is None:
                continue
            data = json.loads(out)
            if kind == "conn":
                require(data["type"] == spec, f"connectivity report for {data['type']}, not {spec}")
                require(data["connected"] is True, f"{spec}: standard markings not connected")
                require(0 < data["diameter"] <= data["bound"], f"{spec}: diameter exceeds bound")
                require(data["nodes"] >= data["standard_markings"] >= 1, f"{spec}: node counts")
            else:
                self.check_ball(lib, lib.context(spec), payload, radius, data)
        self.verified = outputs

    @staticmethod
    def check_ball(lib, ctx, payload, radius, data):
        seed_key = lib.Marking.from_json(ctx, json.loads(payload)).key()
        nodes = {n["key"]: lib.Marking.from_json(ctx, n["marking"]) for n in data["nodes"]}
        require(seed_key in nodes, "bfs ball misses its seed")
        for key, marking in nodes.items():
            require(marking.key() == key, "bfs node key does not match its marking")
        adjacency = {k: set() for k in nodes}
        for a, b, kind in data["edges"]:
            require(kind in ("twist", "flip"), f"unknown edge kind {kind}")
            edge_ok = lib.is_twist_edge if kind == "twist" else lib.is_flip_edge
            require(edge_ok(nodes[a], nodes[b]), f"{kind} edge fails its edge test")
            adjacency[a].add(b)
            adjacency[b].add(a)
        dist, frontier = {seed_key: 0}, [seed_key]
        while frontier:
            nxt = []
            for k in frontier:
                for other in adjacency[k]:
                    if other not in dist:
                        dist[other] = dist[k] + 1
                        nxt.append(other)
            frontier = nxt
        require(len(dist) == len(nodes), "bfs ball has nodes unreachable from the seed")
        require(max(dist.values()) <= radius, f"bfs ball has a node beyond radius {radius}")
        for key, r in dist.items():
            if r < radius:  # interior nodes carry all their twist neighbours
                m = nodes[key]
                for j in range(len(m)):
                    for d in (1, -1):
                        twisted = lib.twist_move(m, j, d).key()
                        require(twisted in nodes, "bfs ball misses a twist neighbour")
                        require(twisted in adjacency[key], "bfs ball misses a twist edge")

    def latency(self, rec):
        """op_p50_ms is the median of every A3 bfs call.  A run makes at
        least 15 of them, fewer than forty, so op_tail_ms is no percentile
        of the calls: it is the slowest of the five A3 seeds, each at its
        median over the rounds."""
        per_seed = [rec.samples[f"bfs.{j}"] for j in range(self.n_seeds)]
        if not all(per_seed):
            return float("nan"), float("nan")
        return (statistics.median(x for v in per_seed for x in v),
                max(statistics.median(v) for v in per_seed))

    def extra_metrics(self, rec):
        return [
            ("conn_s", rec.per_round("conn"), "s"),
            ("bfs_s", sum(rec.per_round(f"bfs.{j}") for j in range(self.n_seeds)), "s"),
            ("b3_bfs_s", rec.per_round("b3_bfs"), "s"),
        ]


# ---------------------------------------------------------------------------


class E8Words:
    """Signed words of length 40 in E8, each with 20 inverse letters: normal
    form, inverse, and product with the previous element of the round; plus
    the conjugacy query <s1..s4> ~ <s5..s8> once per round.

    The elements come from the seed-independent core stream: normal-form
    cost varies by a factor of two between random words, so runs on fresh
    random elements differ by more than any useful bound.  The seed picks
    the word that represents each element (seeded commuting swaps), so
    from_word sees different inputs that must give the same normal form.

    Each element is met at least four times per run, so a slow stretch of
    the machine moves one of the four rounds of its core and not the
    core's median.  The first round of each core is checked in full; a
    later round of the same core must give the very same texts, since
    normal forms are unique."""

    name = "e8-words"
    specs = ("E8",)
    words_per_round = 4  # larger rounds hold more memory and time less steadily
    word_length = 40
    cycle = 5  # 20 distinct elements, each met at least four times per run
    min_rounds = 20
    headline = "nf"
    tail_pct = 87  # at least 80 normal forms per run: ten beyond p87
    latency = percentile_latency

    def __init__(self):
        self.weyl = Weyl("E8")
        self.verified = {}  # core -> the outputs of its fully checked round

    def prepare(self, lib):
        return None

    def make_round(self, rng, data, round_index):
        core = core_rng(self, round_index)
        words = []
        for _ in range(self.words_per_round):
            signs = [1, -1] * (self.word_length // 2)
            core.shuffle(signs)
            letters = [(core.randrange(8), sign) for sign in signs]
            words.append(_word_text(rewrite_commuting(letters, self.weyl, rng)))
        return {"core": round_index % self.cycle, "words": words}

    def run_round(self, lib, inputs, rec):
        ctx = lib.context("E8")
        outputs = []
        prev = None
        for word in inputs["words"]:
            # each call serializes its result, as the nf command does
            g, g_text = rec.call("nf", lambda: _with_text(lib.normalize(ctx, word))) or (None, None)
            inv = rec.call("inverse", lambda: g.inverse().to_text()) if g is not None else None
            prod = None
            if prev is not None and g is not None:
                prod = rec.call("mul", lambda: (prev * g).to_text())
            outputs.append((word, g_text, inv, prod))
            prev = g
        argv = ["--type", "E8", "--format", "json", "conj-graph", "--query",
                "s1,s2,s3,s4", "s5,s6,s7,s8"]
        outputs.append(("conj", rec.cli(lib, "conj_query", argv)))
        return outputs

    def check_round(self, lib, inputs, outputs):
        results = [out[1:] for out in outputs]  # everything but the seeded spellings
        if inputs["core"] in self.verified:
            require(results == self.verified[inputs["core"]],
                    "outputs differ from an earlier round on the same elements")
            return
        self.check_outputs(lib, outputs)
        self.verified[inputs["core"]] = results

    def check_outputs(self, lib, outputs):
        w = self.weyl
        prev = None
        for word, g_text, inv_text, prod_text in outputs[:-1]:
            if g_text is None:
                prev = None
                continue
            letters = w.parse_word(word)
            image, expo = w.check_normal_form(g_text)
            require(image == w.of_word([i for i, _ in letters]), f"normal form image differs for {word!r}")
            require(expo == sum(s for _, s in letters), f"normal form exponent sum differs for {word!r}")
            if inv_text is not None:
                inv_image, inv_expo = w.check_normal_form(inv_text)
                require(w.mul(image, inv_image) == w.identity, "g * g^-1 has a nontrivial image")
                require(inv_expo == -expo, "g * g^-1 has a nonzero exponent sum")
                ctx = lib.context("E8")
                one = lib.parse_element(ctx, g_text) * lib.parse_element(ctx, inv_text)
                require(one.to_text() == "DELTA^0 |", f"g * g^-1 is {one.to_text()[:60]!r}...")
            if prev is not None and prod_text is not None:
                p_image, p_expo = w.check_normal_form(prod_text)
                require(p_image == w.mul(prev[0], image), "product image differs")
                require(p_expo == prev[1] + expo, "product exponent sum differs")
            prev = (image, expo)
        _, out = outputs[-1]
        if out is not None:
            expected = w.ribbon_conjugate(frozenset(range(4)), frozenset(range(4, 8)))
            require(json.loads(out) == {"conjugate": expected}, "E8 conjugacy query answer")

    def extra_metrics(self, rec):
        return [
            ("nf_p50_ms", 1000 * statistics.median(rec.samples["nf"]), "ms"),
            ("mul_p50_ms", 1000 * statistics.median(rec.samples["mul"]), "ms"),
            ("conj_query_ms", 1000 * statistics.median(rec.samples["conj_query"]), "ms"),
        ]


# ---------------------------------------------------------------------------


class Conjugated:
    """CLI calls on JSON payloads of conjugated markings, so no standardizer
    hint carries over: every maximal standard simplex of A4, B3 and D4, its
    recipe marking conjugated by two elements, then min-std on each base
    vertex, canon-std on the base, validate-marking and standardize-marking;
    plus co-rank-1 ribbon decompositions in B3 and D4.

    A conjugator is Delta^(-2k) w, with w a positive word of fixed length and
    k in {0, 1}.  The canonical standardizer then has at most len(w) atoms,
    which keeps every hint-free search inside its budget while its cost still
    grows about threefold per atom (the tail).  Because of that growth, runs
    on fresh random words differ by 20-30% in their medians, so the words
    come from the seed-independent core stream; the seed picks k and the
    word spelling each element (seeded commuting swaps), i.e. the
    representatives the payloads carry."""

    name = "conjugated"
    specs = ("A4", "B3", "D4")
    word_length = {"A4": 7, "B3": 8, "D4": 7}
    per_simplex = 2  # conjugates of each simplex per round
    cycle = 1  # every round conjugates by the same elements
    min_rounds = 3
    headline = "canon_std"
    tail_pct = 95  # at least 210 canon-std calls per run: ten beyond p95
    latency = percentile_latency

    def __init__(self):
        self.weyl = {spec: Weyl(spec) for spec in self.specs}

    def prepare(self, lib):
        recipes = {}
        for spec in self.specs:
            ctx = lib.context(spec)
            recipes[spec] = [
                [(sorted(p.gens), sorted(q.gens)) for p, q in lib.standard_transversals(s).pairs]
                for s in lib.enumerate_maximal_standard(ctx)
            ]
        return recipes

    def make_round(self, rng, recipes, round_index):
        core = core_rng(self, round_index)
        jobs = []
        for spec in self.specs:
            rank = self.weyl[spec].rank
            for pairs in recipes[spec] * self.per_simplex:
                word = [(core.randrange(rank), 1) for _ in range(self.word_length[spec])]
                word = [i for i, _ in rewrite_commuting(word, self.weyl[spec], rng)]
                k = rng.randrange(2)
                # second representatives: conj * Delta^2, or conj * s_x with x in X
                alt = [None if rng.randrange(2) else rng.choice(base) for base, _ in pairs]
                jobs.append({"spec": spec, "pairs": pairs, "word": word, "k": k, "alt": alt})
        ribbons = []
        for spec in ("B3", "D4"):
            w = self.weyl[spec]
            for t in range(w.rank):
                x = frozenset(range(w.rank)) - {t}
                comps = w.components(x)
                exps = [rng.randint(-2, 2) for _ in comps] + [0] * (3 - len(comps))
                d = rng.randint(-2, 2)
                letters = []
                for comp, e in zip(comps, exps):
                    letters += _power_word(w.reduced_longest_word(comp), e)
                letters += _power_word(w.reduced_longest_word(frozenset(range(w.rank))), d)
                ribbons.append({"spec": spec, "x": sorted(x), "expected": exps + [d],
                                "text": _word_text(letters)})
        # the second representatives repeat each call: run them once per cycle
        return {"jobs": jobs, "ribbons": ribbons, "alt_check": round_index < self.cycle}

    @staticmethod
    def conj_text(word, k, suffix=(), central=0) -> str:
        letters = " ".join(f"s{i + 1}" for i in list(word) + list(suffix))
        return f"DELTA^{-2 * k + 2 * central} | {letters}"

    def payloads(self, job, alternate=False):
        """Vertex, simplex and marking payloads; with alternate, each vertex
        is written with its second representative instead."""
        def parab(gens, j=None):
            conj = self.conj_text(job["word"], job["k"])
            if alternate and j is not None:
                x = job["alt"][j]
                conj = (self.conj_text(job["word"], job["k"], central=1) if x is None
                        else self.conj_text(job["word"], job["k"], suffix=(x,)))
            return {"conj": conj, "gens": [f"s{i + 1}" for i in gens]}

        vertices = [parab(b, j) for j, (b, _) in enumerate(job["pairs"])]
        marking = {"pairs": [{"base": parab(b), "transverse": parab(t)} for b, t in job["pairs"]]}
        return vertices, {"vertices": vertices}, marking

    def run_round(self, lib, inputs, rec):
        outputs = []
        for job in inputs["jobs"]:
            spec = job["spec"]
            head = ["--type", spec, "--format", "json"]
            vertices, simplex, marking = self.payloads(job)
            out = {"min_std": [rec.cli(lib, "min_std", head + ["min-std", json.dumps(v)])
                               for v in vertices]}
            out["canon_std"] = rec.cli(lib, "canon_std", head + ["canon-std", json.dumps(simplex)])
            out["validate"] = rec.cli(lib, "validate", head + ["validate-marking", json.dumps(marking)])
            out["standardize"] = rec.cli(
                lib, "standardize", head + ["standardize-marking", json.dumps(marking)])
            outputs.append(out)
        for rib in inputs["ribbons"]:
            ctx = lib.context(rib["spec"])
            x = frozenset(rib["x"])
            result = rec.call(
                "ribbon", lambda: lib.ribbon_delta_form(ctx, lib.parse_element(ctx, rib["text"]), x))
            outputs.append({"ribbon": None if result is None else list(result)})
        return outputs

    def check_round(self, lib, inputs, outputs):
        jobs, ribbons = inputs["jobs"], inputs["ribbons"]
        for job, out in zip(jobs, outputs):
            w = self.weyl[job["spec"]]
            g = w.of_word(job["word"])  # Delta^2 has trivial image
            head = ["--type", job["spec"], "--format", "json"]
            alt_vertices, alt_simplex, _ = self.payloads(job, alternate=True)
            for (base, _), text, alt in zip(job["pairs"], out["min_std"], alt_vertices):
                if text is None:
                    continue
                data = json.loads(text)
                c, target = data["standardizer"], _gens_of(data["gens"])
                require(w.is_positive_text(c), "min-std standardizer is not positive")
                u = w.mul(w.image_of_text(c, inverse=True), g)
                require(len(target) == len(base) and w.maps_into(u, base, target),
                        "min-std standardizer does not carry the vertex onto its target")
                if inputs["alt_check"]:
                    again = _stdout(lib, head + ["min-std", json.dumps(alt)])
                    require(again == text, "min-std differs on a second representative")
            if out["canon_std"] is not None:
                data = json.loads(out["canon_std"])
                c = data["standardizer"]
                require(w.is_positive_text(c), "canon-std standardizer is not positive")
                u = w.mul(w.image_of_text(c, inverse=True), g)
                targets = [_gens_of(s) for s in data["subsets"]]
                require(len(targets) == len(job["pairs"]), "canon-std subset count")
                for base, _ in job["pairs"]:
                    require(any(len(t) == len(base) and w.maps_into(u, base, t) for t in targets),
                            "canon-std standardizer does not carry a vertex onto a subset")
                if inputs["alt_check"]:
                    again = _stdout(lib, head + ["canon-std", json.dumps(alt_simplex)])
                    require(again == out["canon_std"],
                            "canon-std differs on a second representative")
            if out["validate"] is not None:
                data = json.loads(out["validate"])
                require(data["valid"] is True, "validate-marking rejects a conjugated marking")
                require([len(t["subset"]) for t in data["transversals"]]
                        == [len(t) for _, t in job["pairs"]], "transversal subset sizes")
                require(sorted(map(len, data["levels"])) == _level_sizes(job["pairs"]),
                        "validate-marking levels")
            if out["standardize"] is not None:
                data = json.loads(out["standardize"])
                u = w.mul(w.image_of_text(self.conj_text(job["word"], job["k"]), inverse=True),
                          w.image_of_text(data["conjugator"]))
                pairs = data["marking"]["pairs"]
                require(len(pairs) == len(job["pairs"]), "standardized marking size")
                for (base, trans), pair in zip(job["pairs"], pairs):
                    for gens, par in ((base, pair["base"]), (trans, pair["transverse"])):
                        require(par["conj"] == "DELTA^0 |", "standardized marking is not standard")
                        src = _gens_of(par["gens"])
                        require(len(src) == len(gens) and w.maps_into(u, src, gens),
                                "conjugator does not carry the standard marking back")
        for rib, out in zip(ribbons, outputs[len(jobs):]):
            if out["ribbon"] is None:
                continue
            require(out["ribbon"] == rib["expected"],
                    f"ribbon decomposition {out['ribbon']} != built {rib['expected']}")

    def extra_metrics(self, rec):
        p50 = lambda fam: 1000 * statistics.median(rec.samples[fam])
        tail = lambda fam, pct: 1000 * percentile(rec.samples[fam], pct)
        return [
            ("min_std_p50_ms", p50("min_std"), "ms"),
            ("min_std_tail_ms", tail("min_std", 98), "ms"),  # 600 calls: twelve beyond
            ("canon_std_p50_ms", p50("canon_std"), "ms"),
            ("canon_std_tail_ms", tail("canon_std", self.tail_pct), "ms"),
            ("standardize_p50_ms", p50("standardize"), "ms"),
        ]


def _power_word(block, e: int) -> list:
    """A signed word for x^e, where the positive word block spells x."""
    if e >= 0:
        return [(i, 1) for i in block] * e
    return [(i, -1) for i in reversed(block)] * -e


def _level_sizes(pairs) -> list[int]:
    bases = [frozenset(b) for b, _ in pairs]
    depth = [1 + sum(1 for y in bases if x < y) for x in bases]
    return sorted(depth.count(k) for k in set(depth))


def run_cli(lib, argv) -> tuple[int, str, str]:
    """One in-process CLI call: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _stdout(lib, argv) -> str:
    code, out, err = run_cli(lib, argv)
    if code != 0:
        raise CheckFailed(f"check call failed with exit {code}: {err.strip()}")
    return out


WORKLOADS = {w.name: w for w in (Markings, E8Words, Conjugated)}
