"""Deterministic multi-domain synthetic benchmark.

The generator builds datasets in which sequence context is provably
necessary: a shared label grammar is rendered into feature space through
per-domain affine transforms, and a configurable number of verb pairs
share bitwise-identical class prototypes. A single-action classifier is
information-theoretically at chance between the two verbs of a pair,
while neighboring actions identify the center exactly.

The grammar is a Markov chain over states arranged in a fixed cycle of
"recipe" chains of four actions:

    [ identifier_r, amb, amb, amb ] [ identifier_{r+1}, amb, amb, amb ] ...

Identifier actions carry unique, unambiguous verbs. The first and last
ambiguous slots of a chain sit next to an identifier, so a 3-long window
resolves them; the middle slot sees identifiers only at distance two, so
it needs a 5-long window. Two oracles computed from generator truth pin
the floor and the ceiling: a Bayes-optimal single-action classifier and
a maximum-a-posteriori context decoder over grammar states.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from seqdg.data import Actions, DataError, DatasetSplit, FeatureCache, FeatureStore, Windows

__all__ = [
    "SynthConfig",
    "Grammar",
    "DomainTransform",
    "SynthTruth",
    "build_truth",
    "build_recipe_grammar",
    "uniform_grammar",
    "generate",
    "generate_to",
    "save_generated",
    "load_truth",
    "context_oracle",
    "context_oracle_accuracy",
    "single_action_bayes",
    "bayes_accuracy_sampled",
    "bayes_accuracy_on_store",
]

CHAIN_LENGTH = 4
# the largest truth `load_truth` rebuilds: domains, each drawing a transform,
# and float64 values in the square arrays the config implies (a d_v x d_v
# transform per domain, the grammar's n_verbs x n_verbs transitions), 256 MiB
MAX_TRUTH_DOMAINS = 1024
MAX_TRUTH_FLOATS = 2**25


@dataclass
class SynthConfig:
    """Generator knobs. The verb/noun counts are tied to the number of
    ambiguous pairs by the chain layout and are validated together."""

    n_source_domains: int = 4
    n_target_domains: int = 1
    n_ambiguous_pairs: int = 9
    n_verbs: int = 24
    n_nouns: int = 15
    videos_per_domain: int = 3
    actions_per_video: int = 80
    d_v: int = 64
    d_t: int = 64
    clips_per_action: int = 4
    domain_shift: float = 0.2
    offset_shift: float = 0.1
    noise_sigma: float = 0.08
    seed: int = 0

    def validate(self) -> list[str]:
        errs = []
        if self.n_source_domains < 1:
            errs.append("need at least one source domain")
        if self.n_target_domains < 0:
            errs.append("n_target_domains must be >= 0")
        p = self.n_ambiguous_pairs
        if p < 0:
            errs.append("n_ambiguous_pairs must be >= 0")
        elif p > 0:
            if p % 3 != 0:
                errs.append(f"n_ambiguous_pairs must be a multiple of 3 "
                            f"(3 per chain pair), got {p}")
            else:
                m = p // 3
                if self.n_verbs != 8 * m:
                    errs.append(f"with {p} ambiguous pairs n_verbs must be {8 * m}, "
                                f"got {self.n_verbs}")
                if self.n_nouns != 5 * m:
                    errs.append(f"with {p} ambiguous pairs n_nouns must be {5 * m}, "
                                f"got {self.n_nouns}")
        else:
            if self.n_verbs < CHAIN_LENGTH or self.n_verbs % CHAIN_LENGTH != 0:
                errs.append(f"with no ambiguous pairs n_verbs must be a positive "
                            f"multiple of {CHAIN_LENGTH}, got {self.n_verbs}")
            if self.n_nouns < 1:
                errs.append("n_nouns must be >= 1")
        if self.videos_per_domain < 1 or self.actions_per_video < 1:
            errs.append("videos_per_domain and actions_per_video must be >= 1")
        if self.d_v < 2 or self.d_v % 2 != 0:
            errs.append(f"d_v must be even and >= 2 (verb half + noun half), "
                        f"got {self.d_v}")
        if self.d_t < 1:
            errs.append(f"d_t must be >= 1, got {self.d_t}")
        if self.clips_per_action < 1:
            errs.append("clips_per_action must be >= 1")
        if self.noise_sigma < 0 or self.domain_shift < 0 or self.offset_shift < 0:
            errs.append("noise_sigma, domain_shift and offset_shift must be >= 0")
        if self.seed < 0:
            errs.append(f"seed must be >= 0, got {self.seed}")
        return errs

    def check(self) -> "SynthConfig":
        errs = self.validate()
        if errs:
            raise DataError("invalid synth config: " + "; ".join(errs))
        return self

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class Grammar:
    """First-order Markov chain over states, each emitting one
    (verb, noun) action label."""

    transitions: np.ndarray   # (S, S), row-stochastic
    verbs: np.ndarray         # (S,)
    nouns: np.ndarray         # (S,)
    start: np.ndarray         # (S,)

    @property
    def n_states(self) -> int:
        return self.verbs.size

    def labels(self) -> list[tuple[int, int]]:
        return [(int(v), int(n)) for v, n in zip(self.verbs, self.nouns)]

    def label_counts(self) -> dict[tuple[int, int], int]:
        counts: dict[tuple[int, int], int] = {}
        for lab in self.labels():
            counts[lab] = counts.get(lab, 0) + 1
        return counts

    def walk(self, length: int, rng) -> np.ndarray:
        """A chain of `length` states drawn from one uniform per step.

        The `length + 1` doubles of `rng.random` are the draws that a
        `rng.choice(n_states, p=...)` per step takes: the start state, then
        each state's successor, the last one drawn and dropped. Each state
        is found as `choice` finds it, by a right-sided search of the
        cumulative sum divided by its last entry, so the states and the
        generator's state afterwards are those of the per-step loop. The
        start vector and every transition row first get `choice`'s checks:
        a NaN, a negative entry or a sum off 1 by more than sqrt(eps)
        raises ValueError.
        """
        return _walk(*self._cdfs(), length, rng)

    def _cdfs(self) -> tuple[list, list]:
        """The cumulative sums `walk` searches, each divided by its last
        entry, as Python floats: the start vector's, and one list per
        transition row. Both first pass `choice`'s checks."""
        n = self.n_states
        start = _checked_probabilities(self.start, (n,), "start vector")
        transitions = _checked_probabilities(self.transitions, (n, n), "transition row")
        start_cdf = start.cumsum()
        start_cdf /= start_cdf[-1]
        cdfs = transitions.cumsum(axis=1)
        cdfs /= cdfs[:, -1:]
        return start_cdf.tolist(), cdfs.tolist()


def _walk(start_cdf: list, cdfs: list, length: int, rng) -> np.ndarray:
    """`Grammar.walk` over the cumulative sums that `Grammar._cdfs` gives."""
    uniforms = rng.random(length + 1).tolist()
    # bisect_right on Python floats is searchsorted(side="right")
    states = [bisect.bisect_right(start_cdf, uniforms[0])]
    for uniform in uniforms[1:length]:
        states.append(bisect.bisect_right(cdfs[states[-1]], uniform))
    return np.asarray(states[:length], dtype=np.int64)


def _checked_probabilities(p, shape: tuple[int, ...], what: str) -> np.ndarray:
    """`p` as float64 after the checks `Generator.choice` makes on its `p`,
    each made on every row of the last axis at once."""
    atol = np.sqrt(np.finfo(np.float64).eps)
    if isinstance(p, np.ndarray) and np.issubdtype(p.dtype, np.floating):
        atol = max(atol, np.sqrt(np.finfo(p.dtype).eps))
    p = np.asarray(p, dtype=np.float64)
    if p.shape != shape:
        raise ValueError(f"{what}: shape {p.shape} does not match the {shape[-1]} states")
    totals = p.sum(axis=-1)
    for bad, message in ((np.isnan(totals), "Probabilities contain NaN"),
                         ((p < 0).any(axis=-1), "Probabilities are not non-negative"),
                         (np.abs(totals - 1.0) > atol, "Probabilities do not sum to 1")):
        if bad.any():
            where = f" {int(np.flatnonzero(bad)[0])}" if p.ndim > 1 else ""
            raise ValueError(f"{message} ({what}{where})")
    return p


def build_recipe_grammar(config: SynthConfig) -> tuple[Grammar, list[tuple[int, int]]]:
    """The default cyclic grammar plus the list of ambiguous verb pairs.

    Verb ids: pair p occupies verbs (2p, 2p+1); identifier verbs follow.
    Noun ids: pair p uses noun p (both pair members, so the noun never
    leaks the verb); identifier slots use the remaining nouns.
    """
    config.check()
    p = config.n_ambiguous_pairs
    if p > 0:
        m = p // 3
        n_chains = 2 * m
        pairs = [(2 * q, 2 * q + 1) for q in range(p)]
        verbs, nouns = [], []
        for chain in range(n_chains):
            chain_pair, side = divmod(chain, 2)
            verbs.append(2 * p + chain)            # identifier verb
            nouns.append(p + chain)                # identifier noun
            for slot in range(3):
                q = 3 * chain_pair + slot
                verbs.append(2 * q + side)         # pair member A or B
                nouns.append(q)                    # shared pair noun
    else:
        pairs = []
        n_chains = config.n_verbs // CHAIN_LENGTH
        verbs = list(range(config.n_verbs))
        nouns = [i % config.n_nouns for i in range(config.n_verbs)]
    n_states = n_chains * CHAIN_LENGTH
    transitions = np.zeros((n_states, n_states))
    for s in range(n_states):
        transitions[s, (s + 1) % n_states] = 1.0
    start = np.full(n_states, 1.0 / n_states)
    grammar = Grammar(transitions=transitions,
                      verbs=np.asarray(verbs, dtype=np.int64),
                      nouns=np.asarray(nouns, dtype=np.int64), start=start)
    return grammar, pairs


def uniform_grammar(verbs, nouns) -> Grammar:
    """Every state equally likely to follow every state; context carries
    no information."""
    verbs = np.asarray(verbs, dtype=np.int64)
    n = verbs.size
    return Grammar(transitions=np.full((n, n), 1.0 / n), verbs=verbs,
                   nouns=np.asarray(nouns, dtype=np.int64),
                   start=np.full(n, 1.0 / n))


@dataclass
class DomainTransform:
    """Feature-space stand-in for a new environment: rotation, per-axis
    scaling, and an offset."""

    rotation: np.ndarray   # (D, D) orthogonal
    scaling: np.ndarray    # (D,)
    offset: np.ndarray     # (D,)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x * self.scaling) @ self.rotation.T + self.offset


def _domain_transform(config: SynthConfig, d_index: int) -> DomainTransform:
    """The transform of domain `d_index`, drawn from its own seed stream."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1, d_index)).spawn(1)[0])
    dim, shift = config.d_v, config.domain_shift
    if shift == 0.0:
        rotation = np.eye(dim)
        scaling = np.ones(dim)
    else:
        perturb = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        rotation, _ = np.linalg.qr(np.eye(dim) + shift * perturb)
        scaling = 1.0 + 0.2 * shift * rng.uniform(-1.0, 1.0, dim)
    offset = config.offset_shift * rng.standard_normal(dim)
    return DomainTransform(rotation=rotation, scaling=scaling, offset=offset)


@dataclass
class SynthTruth:
    """Everything an oracle needs, all of it a function of the config."""

    config: SynthConfig
    grammar: Grammar
    pairs: list[tuple[int, int]]
    verb_protos: np.ndarray            # (n_verbs, d_v/2)
    noun_protos: np.ndarray            # (n_nouns, d_v/2)
    transforms: dict[str, DomainTransform]

    def prototype(self, verb: int, noun: int) -> np.ndarray:
        return np.concatenate([self.verb_protos[verb], self.noun_protos[noun]])

    def to_dict(self) -> dict:
        """`generator_truth.json`: the config the rest is rebuilt from, plus
        the pairs and prototypes that readers outside this module use."""
        return {"config": self.config.to_dict(), "pairs": [list(p) for p in self.pairs],
                "verb_protos": self.verb_protos.tolist(),
                "noun_protos": self.noun_protos.tolist()}


def _split(config: SynthConfig) -> DatasetSplit:
    return DatasetSplit(source=tuple(f"S{i}" for i in range(config.n_source_domains)),
                        target=tuple(f"T{i}" for i in range(config.n_target_domains)))


def build_truth(config: SynthConfig) -> SynthTruth:
    """The generator's ground truth; its draws use seed streams of their
    own, apart from video sampling."""
    config = config.check()
    proto_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    grammar, pairs = build_recipe_grammar(config)
    half = config.d_v // 2
    verb_protos = proto_rng.standard_normal((config.n_verbs, half))
    for a, b in pairs:
        verb_protos[b] = verb_protos[a]           # bitwise-shared prototypes
    noun_protos = proto_rng.standard_normal((config.n_nouns, half))
    split = _split(config)
    transforms = {domain: _domain_transform(config, d_index)
                  for d_index, domain in enumerate(split.source + split.target)}
    return SynthTruth(config=config, grammar=grammar, pairs=pairs, verb_protos=verb_protos,
                      noun_protos=noun_protos, transforms=transforms)


def load_truth(path) -> SynthTruth:
    """Rebuild the truth from a `generator_truth.json` as `generate_to`
    writes it: a JSON object of exactly `config`, `pairs`, `verb_protos`
    and `noun_protos`, the config passing the config-file typing rule and
    `SynthConfig.check`, the rest equal to what the config rebuilds. The
    prototypes' shapes are compared with the config before the rebuild,
    which allocates what they imply, and so is its size: at most
    `MAX_TRUTH_DOMAINS` domains and `MAX_TRUTH_FLOATS` values in the
    domains' transforms and in the transition matrix. Any other file
    raises a DataError that names the key at fault."""
    from seqdg.config import field_defaults, field_problems  # seqdg.config imports this module

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # as in `FeatureStore.load`
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if type(payload) is not dict:
        raise DataError(f"{path}: generator truth must be a JSON object")
    keys = {"config", "pairs", "verb_protos", "noun_protos"}
    for names, what in ((keys - payload.keys(), "no key"),
                        (payload.keys() - keys, "an unknown key")):
        if names:
            raise DataError(f"{path}: generator truth has {what} {sorted(names)[0]!r}")
    problems = field_problems("config", payload["config"], field_defaults(SynthConfig))
    if problems:
        raise DataError(f"{path}: " + "; ".join(problems))
    config = SynthConfig(**payload["config"]).check()
    # the prototypes' shapes bound the truth the config rebuilds
    for key, rows in (("verb_protos", config.n_verbs), ("noun_protos", config.n_nouns)):
        protos = payload[key]
        if type(protos) is not list or len(protos) != rows or any(
                type(row) is not list or len(row) != config.d_v // 2 for row in protos):
            raise DataError(f"{path}: {key!r} differs from the truth its config rebuilds: "
                            f"it is not {rows} rows of d_v / 2 = {config.d_v // 2} values")
    # the file's size bounds d_v and n_verbs, but the rebuild grows with their squares
    n_domains = config.n_source_domains + config.n_target_domains
    for keys, size, limit, what in (
            ("'n_source_domains' and 'n_target_domains'", n_domains, MAX_TRUTH_DOMAINS,
             "domains"),
            ("'d_v'", n_domains * config.d_v ** 2, MAX_TRUTH_FLOATS, "transform floats"),
            ("'n_verbs'", config.n_verbs ** 2, MAX_TRUTH_FLOATS, "transition floats")):
        if size > limit:
            raise DataError(f"{path}: config {keys}: {size} {what}, past the {limit} "
                            "that load_truth rebuilds")
    truth = build_truth(config)
    for key, value in truth.to_dict().items():
        if payload[key] != value:
            raise DataError(f"{path}: {key!r} differs from the truth its config rebuilds")
    return truth


# ---------------------------------------------------------------------------
# generation


def generate(config: SynthConfig) -> tuple[FeatureStore, SynthTruth]:
    """Sample the full multi-domain dataset. Deterministic per seed.

    Each video draws, from a seed stream of its own, a walk of the grammar
    and then one standard normal per clip value; the values are the
    states' class means in the video's domain plus `noise_sigma` times
    the normals, summed in float64 and rounded once to float32. The
    grammar's checks and cumulative sums are made once per call, every
    video writes into one float32 buffer, and the action table is built
    from the video and domain codes."""
    truth = build_truth(config)
    config, grammar = truth.config, truth.grammar
    split = _split(config)
    domains = split.source + split.target
    length, per_domain = config.actions_per_video, config.videos_per_domain
    video_shape = (length, config.clips_per_action, config.d_v)
    cdfs = grammar._cdfs()
    states = np.empty((len(domains) * per_domain, length), dtype=np.int64)
    features = np.empty((len(states), *video_shape), dtype="<f4")
    with np.errstate(over="ignore"):  # a value past float32 is refused below
        for d_index, domain in enumerate(domains):
            # each state's class mean in this domain, one row per state
            means = np.stack([truth.transforms[domain].apply(truth.prototype(verb, noun))
                              for verb, noun in grammar.labels()])[:, None]
            for v_index in range(per_domain):
                video = d_index * per_domain + v_index
                rng = np.random.default_rng(
                    np.random.SeedSequence((config.seed, 2, d_index, v_index)))
                states[video] = _walk(*cdfs, length, rng)
                noise = rng.standard_normal(video_shape)
                noise *= config.noise_sigma
                # the float64 sum, rounded into the buffer as `astype` rounds it
                np.add(means[states[video]], noise, out=features[video])
    states = states.reshape(-1)
    verbs, nouns = grammar.verbs[states], grammar.nouns[states]
    ids = np.arange(len(states), dtype=np.int64)
    actions = Actions.from_codes(
        [f"{domain}_v{v_index}" for domain in domains for v_index in range(per_domain)],
        domains, ids, ids // length, ids // (per_domain * length), verbs, nouns,
        ids % length, ids * config.clips_per_action * config.d_v,
        np.full(len(ids), config.clips_per_action, dtype=np.int64),
        np.full(len(ids), 2, dtype=np.int64),
        np.stack([verbs, config.n_verbs + nouns], 1).reshape(-1))
    vocab = [f"verb{v}" for v in range(config.n_verbs)] + \
            [f"noun{n}" for n in range(config.n_nouns)]
    meta = {"name": f"synth-{config.seed}", "d_v": config.d_v, "d_t": config.d_t,
            "clips_per_action": config.clips_per_action}
    features = features.reshape(-1)
    try:
        return FeatureStore(meta, actions, vocab, split, features), truth
    except DataError:
        # the store's check is the one finiteness scan; a value it refuses
        # is a fault of the config, and any other refusal is not
        if np.isfinite(features).all():
            raise
        raise ValueError("invalid synth config: offset_shift, domain_shift and noise_sigma "
                         "give features that are not finite in float32") from None


def generate_to(config: SynthConfig, directory) -> Path:
    """Generate and persist the dataset (`save_generated`)."""
    return save_generated(*generate(config), directory)


def save_generated(store: FeatureStore, truth: SynthTruth, directory) -> Path:
    """Persist a generated dataset plus the generator-truth file
    (`SynthTruth.to_dict`)."""
    directory = Path(directory)
    manifest = store.save(directory)
    (directory / "generator_truth.json").write_text(
        json.dumps(truth.to_dict(), sort_keys=True), encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# oracles


def context_oracle(labels, grammar: Grammar, center: int,
                   padding=None) -> tuple[int, int]:
    """MAP center label given the neighbors' labels under the grammar.

    `labels` are the window's (verb, noun) pairs; the center entry is
    ignored (it is the prediction target) and padded slots, which
    replicate edge actions, are dropped. Ties break toward the smallest
    (verb, noun) pair so a uniform grammar scores exactly chance on
    balanced ambiguous samples.
    """
    if padding is None:
        padding = [False] * len(labels)
    keep = [i for i, pad in enumerate(padding) if not pad]
    obs = [labels[i] for i in keep]
    pos = keep.index(center)

    n = grammar.n_states
    match = np.ones((len(obs), n))
    for t, (verb, noun) in enumerate(obs):
        if t == pos:
            continue
        match[t] = (grammar.verbs == verb) & (grammar.nouns == noun)
    alpha = grammar.start * match[0]
    alphas = [alpha]
    for t in range(1, len(obs)):
        alpha = (alpha @ grammar.transitions) * match[t]
        alphas.append(alpha)
    beta = np.ones(n)
    betas = [beta]
    for t in range(len(obs) - 2, -1, -1):
        beta = grammar.transitions @ (match[t + 1] * beta)
        betas.append(beta)
    betas.reverse()
    posterior = alphas[pos] * betas[pos]
    total = posterior.sum()
    if total <= 0.0:
        posterior = np.ones(n)  # window impossible under the grammar
    scores: dict[tuple[int, int], float] = {}
    for s in range(n):
        lab = (int(grammar.verbs[s]), int(grammar.nouns[s]))
        scores[lab] = scores.get(lab, 0.0) + float(posterior[s])
    top = max(scores.values())
    # ties resolve to the smallest (verb, noun) pair
    return min(lab for lab, score in scores.items() if score == top)


def context_oracle_accuracy(windows: Windows, grammar: Grammar) -> float:
    labels = windows.actions.labels()
    hits = 0
    for rows, padding in zip(windows.rows.tolist(), windows.padding.tolist()):
        window = [labels[row] for row in rows]
        hits += context_oracle(window, grammar, windows.center, padding) == window[windows.center]
    return 100.0 * hits / len(windows)


def single_action_bayes(x: np.ndarray, domain: str, truth: SynthTruth,
                        sigma_eff: float) -> tuple[int, int]:
    """Bayes-optimal center prediction from one aggregated feature vector,
    computed from the generator's own densities. Ties break toward the
    smallest label, which scores one pair side at 100% and the other at 0%."""
    transform = truth.transforms[domain]
    counts = truth.grammar.label_counts()
    best_lab, best_score = None, None
    for lab in sorted(counts):
        mean = transform.apply(truth.prototype(*lab))
        sq = float(((x - mean) ** 2).sum())
        if sigma_eff > 0:
            score = np.log(counts[lab]) - sq / (2.0 * sigma_eff ** 2)
        else:
            score = -sq  # zero noise degenerates to nearest prototype
        if best_score is None or score > best_score:
            best_lab, best_score = lab, score
    return best_lab


def _sigma_eff(truth: SynthTruth) -> float:
    # evaluation aggregates by averaging all clips, shrinking the noise
    return truth.config.noise_sigma / np.sqrt(truth.config.clips_per_action)


def bayes_accuracy_sampled(truth: SynthTruth, n_samples: int, seed: int = 0,
                           only_ambiguous: bool = False) -> float:
    """Accuracy of the Bayes single-action oracle on fresh samples drawn
    from the generator's densities (uniform over states and domains)."""
    rng = np.random.default_rng(seed)
    grammar = truth.grammar
    ambiguous = {v for pair in truth.pairs for v in pair}
    states = [s for s in range(grammar.n_states)
              if not only_ambiguous or int(grammar.verbs[s]) in ambiguous]
    if not states:
        raise DataError("no states match the requested sample filter")
    domains = sorted(truth.transforms)
    sigma = _sigma_eff(truth)
    hits = 0
    for _ in range(n_samples):
        s = states[int(rng.integers(len(states)))]
        domain = domains[int(rng.integers(len(domains)))]
        lab = (int(grammar.verbs[s]), int(grammar.nouns[s]))
        mean = truth.transforms[domain].apply(truth.prototype(*lab))
        x = mean + sigma * rng.standard_normal(truth.config.d_v)
        hits += single_action_bayes(x, domain, truth, sigma) == lab
    return 100.0 * hits / n_samples


def bayes_accuracy_on_store(store: FeatureStore, truth: SynthTruth) -> float:
    """Bayes single-action accuracy over the stored dataset (all clips
    averaged per action)."""
    sigma = _sigma_eff(truth)
    actions = store.actions
    domains = [actions.domain_names[code] for code in actions.domain.tolist()]
    hits = 0
    for x, domain, label in zip(FeatureCache(store, actions).visual, domains, actions.labels()):
        hits += single_action_bayes(x, domain, truth, sigma) == label
    return 100.0 * hits / len(actions)
