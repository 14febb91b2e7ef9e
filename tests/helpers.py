"""Shared builders for the tests: series, random partitions, permutations,
the binary partitions that the reference sums run over, a reference
binary-partition pass that sums four-factor products, a reference
no-leaf pass that carries the dissymmetry terms (S, r, half), the
unrooted route that the two make together, Otter's dissymmetry step on the
unlabeled tree counts, the argparse parser that the command line's own
parser must read argv like (and the argv it misreads), and a seeded corpus
of argv to read."""

import argparse
import math
import random
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction

from tanglecount import CycleIndexSeries, Partition, species


def series(degree, *terms):
    """Build a series from (parts, numerator, denominator) triples."""
    return CycleIndexSeries(
        {Partition(parts): Fraction(num, den) for parts, num, den in terms}, degree
    )


def random_partition(rng, n):
    parts = []
    remaining = n
    while remaining:
        p = rng.randint(1, remaining)
        parts.append(p)
        remaining -= p
    return Partition(tuple(sorted(parts, reverse=True)))


def random_series(rng, degree, max_terms=6, zero_constant=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(1 if zero_constant else 0, degree)
        terms[random_partition(rng, n)] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return CycleIndexSeries(terms, degree)


def cycle_type(sigma: tuple[int, ...]) -> Partition:
    """Cycle type of a permutation given as a tuple (i -> sigma[i-1])."""
    n = len(sigma)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return Partition(tuple(lengths))


def compose(sigma: tuple[int, ...], tau: tuple[int, ...]) -> tuple[int, ...]:
    """(sigma . tau)(i) = sigma(tau(i))."""
    return tuple(sigma[t - 1] for t in tau)


def binary_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into powers of 2, each exactly once, as
    multiplicity vectors: entry a counts the parts equal to 2^a, and the
    last entry, for the largest part, is nonzero (n = 0 gives ())."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return

    def fill(mult: list[int], a: int, rest: int, least: int) -> Iterator[tuple[int, ...]]:
        # parts 2^a and below make up rest; the larger ones are chosen
        if a == 0:
            mult[0] = rest
            yield tuple(mult)
            return
        for m in range(rest >> a, least - 1, -1):
            mult[a] = m
            yield from fill(mult, a - 1, rest - (m << a), 0)

    for top in range(n.bit_length() - 1, -1, -1):
        yield from fill([0] * (top + 1), top, n, 1)


def from_vector(mult, scale=1):
    """The partition with mult[a] parts scale * 2^a."""
    return Partition(
        tuple(scale << a for a in reversed(range(len(mult))) for _ in range(mult[a]))
    )


def cycle_type_weights(s, odd_lengths, max_n):
    """Index M holds the number of permutations of M*s points whose cycles
    all have a length e*s with e in odd_lengths."""
    top = max_n // s
    perms = [1] + [0] * top
    for m in range(1, top + 1):
        # the cycle through the first point has e*s points
        perms[m] = sum(
            math.perm(m * s - 1, e * s - 1) * perms[m - e]
            for e in odd_lengths
            if e <= m
        )
    return perms


def reference_fixed_point_table(g, valuations, max_n, leaf=False, rotated=False):
    """species._fixed_point_table of the odd e | g with r's factor on each
    valuation of mu, the one pass of the rooted store key of mu, or with
    rho = 3 on each if rotated, by the four-factor step: each (base, m)
    adds table[base] * C(top, base) * weights[m] * tails, the weights summed
    over every odd e | g at once."""
    odd_lengths = [e for e in range(1, g + 1, 2) if g % e == 0]
    shift = 2 if leaf else 0
    table = [1] + [0] * max_n
    s, a = 1, 0
    while s <= max_n:
        splits = Counter(min(a, b) for b in valuations).items()
        turns = 3 ** (sum(times << c for c, times in splits) - 1) if rotated else 1
        pieces = []
        for t in range(max_n - s + 1):
            factor = turns
            for c, times in splits:
                size = s >> c
                split = 1
                for i in range(1, (1 << c) + 1):
                    split *= 2 * (t + i * size) - 1 - shift
                factor *= split**times
            pieces.append(factor)
        weights = cycle_type_weights(s, odd_lengths, max_n)
        grown = table[:]
        for base in range(max_n - s + 1):
            if not table[base]:
                continue
            tails = 1
            for m in range(1, (max_n - base) // s + 1):
                tails *= pieces[base + (m - 1) * s]
                top = base + m * s
                grown[top] += table[base] * math.comb(top, base) * weights[m] * tails
        if leaf and s == 1:
            grown[0] = 0  # no part 1
        table = grown
        s, a = 2 * s, a + 1
    return table


def no_leaf_grow(state, part):
    """The dissymmetry terms (size, S, r, half) of a binary lam with no part
    1 (see species.u_direct), grown by a part at least as large as every
    part of lam; the empty lam is (0, 0, 0, 0)."""
    size, splits, r, half = state
    if not size:
        return part, 0, 1, 2
    return (
        size + part,
        (2 * size - 3) * splits + half + 2 * r,
        (2 * size - 1) * r,
        2 * (size - 1) * half,
    )


def reference_u(lam):
    """u_lam = (S - r + 2 half)/3 of a binary lam with no part 1, from
    no_leaf_grow over the parts, the smallest first."""
    state = (0, 0, 0, 0)
    for part in reversed(lam.parts):
        state = no_leaf_grow(state, part)
    _, splits, r, half = state
    u, rest = divmod(splits - r + 2 * half, 3)
    assert not rest, lam
    return u


def _grow_products(carry, size):
    """The tensor square of no_leaf_grow: the sums (SS, Sr, Sh, rr, rh, hh)
    of the products of two of (S, r, half) after one more part, over lams
    of running size size."""
    SS, Sr, Sh, rr, rh, hh = carry
    a, b, c = 2 * size - 3, 2 * size - 1, 2 * (size - 1)
    return (
        a * a * SS + 4 * a * Sr + 2 * a * Sh + 4 * rr + 4 * rh + hh,
        b * (a * Sr + 2 * rr + rh),
        c * (a * Sh + 2 * rh + hh),
        b * b * rr,
        b * c * rh,
        c * c * hh,
    )


def reference_no_leaf_table(max_n):
    """The binary lam with no part 1 in the unrooted tables of 1^2 and (2),
    for reference_unrooted_table: (squares, powers), whose entries n are n!
    times the sums over those lam |- n of u_lam^2 / z_lam and of
    u_{lam^2} / z_lam, by the nine sums of (S, r, half) that u_direct's
    dissymmetry step carries: the six
    products of two of lam's terms, from which 9 u^2 = SS + rr + 4hh - 2Sr
    + 4Sh - 4rh, and lam^2's three terms, from which 3 u = S - r + 2 half.
    The empty lam enters with S = r = half = -1, which the step at size 0
    takes to a single part's (0, 1, 2)."""
    table = [(1,) * 6 + (-1,) * 3] + [(0,) * 9] * max_n
    s = 2
    while s <= max_n:
        for base in range(max_n - s, -1, -1):
            carry = table[base]
            if not any(carry):
                continue
            for m in range(1, (max_n - base) // s + 1):
                size = base + (m - 1) * s
                square = no_leaf_grow(no_leaf_grow((size, *carry[6:]), s >> 1), s >> 1)
                top = size + s
                grown = _grow_products(carry[:6], size) + square[1:]
                carry = tuple(x * math.perm(top, s) // (s * m) for x in grown)
                table[top] = tuple(x + y for x, y in zip(table[top], carry))
        s *= 2
    squares, powers = [0] * (max_n + 1), [0] * (max_n + 1)
    for n in range(2, max_n + 1):
        SS, Sr, Sh, rr, rh, hh, splits, r, half = table[n]
        squares[n], rest = divmod(SS + rr + 4 * hh - 2 * Sr + 4 * Sh - 4 * rh, 9)
        assert not rest, n
        powers[n], rest = divmod(splits - r + 2 * half, 3)
        assert not rest, n
    return tuple(squares), tuple(powers)


def reference_unrooted_table(valuations, max_n):
    """species._key_table of the unrooted store key of mu = 1^2 or (2), but
    for its lam = 3 nu, by two passes: the four-factor pass rooted
    at a fixed leaf for the binary lam with a part 1 (u_lam is r of lam
    less that part, and so is each u_{lam^j}), whose factors carry 2n - 3
    per part of mu and the leaf's own -1, and the nine-sum no-leaf pass for
    the other binary lam, times 2n - 3 per part of mu = 1^2 or (2)."""
    parts = len(valuations)
    leaf = reference_fixed_point_table(1, valuations, max_n, leaf=True)
    no_leaf = dict(zip([(0, 0), (1,)], reference_no_leaf_table(max_n)))[valuations]
    table = [0] * (max_n + 1)
    for n in range(2, max_n + 1):
        table[n] = (-1) ** parts * leaf[n] + no_leaf[n] * (2 * n - 3) ** parts
    return table


def unrooted_from_rooted(rooted: list[int]) -> list[int]:
    """Counts of unlabeled unrooted binary trees by leaf number, from
    rooted[n], those of rooted ones for n <= N (rooted[0] = 0), by Otter's
    dissymmetry step on ordinary generating functions (Otter, The number of
    trees, 1948):

      U = (R^3 + 3 R(x) R(x^2) + 2 R(x^3)) / 6 + x R + R - R^2 - x

    Index n of the returned list is the coefficient of x^n, 0 for n <= 1."""
    r = rooted
    square = [sum(r[i] * r[n - i] for i in range(1, n)) for n in range(len(r))]
    out = [0] * len(r)
    for n in range(2, len(r)):
        cube = sum(r[i] * square[n - i] for i in range(1, n - 1))
        pairs = sum(r[n - 2 * i] * r[i] for i in range(1, (n + 1) // 2))
        triples = r[n // 3] if n % 3 == 0 else 0
        h3, rest = divmod(cube + 3 * pairs + 2 * triples, 6)
        assert not rest, f"h3 at {n} is not an integer"
        out[n] = h3 + r[n - 1] + r[n] - square[n]
    return out


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line had, with the same subcommands,
    options, choices and defaults, as the reference for `cli.parse`.  It is
    listed here by hand, not built from `cli._COMMANDS` as `cli._argparse`
    is, so that a slip in that table shows as a difference."""
    formats = ["bfile", "csv", "json", "table"]
    parser = argparse.ArgumentParser(prog="tanglecount")
    sub = parser.add_subparsers(dest="command", required=True)

    p_counts = sub.add_parser("counts")
    p_counts.add_argument("--family", action="append", required=True, choices=species.FAMILY_KINDS)
    p_counts.add_argument("--k", type=int, default=2)
    p_counts.add_argument("--max-n", type=int, required=True)
    p_counts.add_argument("--format", default="table", choices=formats)
    p_counts.add_argument("--output", default=None)

    p_zindex = sub.add_parser("zindex")
    p_zindex.add_argument("which", choices=("R", "U"))
    p_zindex.add_argument("--max-degree", type=int, required=True)
    p_zindex.add_argument("--output", default=None)

    p_gf = sub.add_parser("gf")
    p_gf.add_argument("which", choices=("R", "U"))
    p_gf.add_argument("--max-n", type=int, required=True)
    p_gf.add_argument("--format", default="table", choices=formats)
    p_gf.add_argument("--output", default=None)

    p_verify = sub.add_parser("verify")
    p_verify.add_argument("--max-n", type=int, default=5)

    return parser


def _drops_dashes() -> bool:
    parser = argparse.ArgumentParser()
    parser.add_argument("--x")
    return parser.parse_args(["--x=--"]).x != "--"


# argparse before 3.13 reads the value of --opt=-- as [], where 3.13 reads
# "--" as the command line always did; the reference shares the defect
_ARGPARSE_DROPS_DASHES = _drops_dashes()


def reference_misreads(argv: list[str]) -> bool:
    """Whether this interpreter's argparse, and so the reference, may read
    argv wrongly: it holds a token --opt=-- and argparse drops its "--"."""
    return _ARGPARSE_DROPS_DASHES and any(
        token[:1] == "-" and token.endswith("=--") for token in argv
    )


# tokens that argparse reads in its own ways: a negative number, a lone "-",
# the empty string, one with a space, "--", help in its odd forms, a bad int
# and a bad choice
ODD_TOKENS = ("-1", "-", "", "a b", "--", "-h", "-hh", "--help=x", "x", "wibble")


def argv_corpus(commands, size: int, seed: int) -> list[list[str]]:
    """size seeded argv for the command line whose subcommands commands
    lists as `cli._COMMANDS` does: each argument mostly present, by its name
    or a prefix of it, with its value as the next token or after "=", the
    value sometimes one of ODD_TOKENS, an argument sometimes repeated, the
    command sometimes left out, and an odd token sometimes put anywhere,
    before the command too."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(size):
        command = rng.choice(list(commands))
        arguments = list(commands[command][1])
        rng.shuffle(arguments)
        if arguments and rng.random() < 0.2:
            arguments.append(rng.choice(arguments))
        argv = [command]
        for name, values, _, _ in arguments:
            if rng.random() < 0.1:
                continue
            if isinstance(values, tuple):
                value = rng.choice(values)
            else:
                value = str(rng.randrange(8)) if values is int else "out.txt"
            if rng.random() < 0.2:
                value = rng.choice(ODD_TOKENS)
            if name[0] != "-":
                argv.append(value)
                continue
            if rng.random() < 0.15:
                name = name[: rng.randrange(3, len(name) + 1)]
            argv += [f"{name}={value}"] if rng.random() < 0.3 else [name, value]
        if rng.random() < 0.05:
            del argv[0]
        if rng.random() < 0.2:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(ODD_TOKENS))
        corpus.append(argv)
    return corpus
