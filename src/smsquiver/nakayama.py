"""Explicit stable module category of a self-injective Nakayama algebra.

The algebra N(e, L) is the cyclic-quiver Nakayama algebra with `e` simples
and Loewy length `L` (arrows i -> i+1 mod e, paths of length L vanish).
Indecomposables are the serial modules M(t, l) with top t and length
l <= L; M(t, L) is the projective cover P(t).  The composition factors of
M(t, l) are t, t+1, ..., t+l-1 read top to socle.

Everything is computed exactly, combinatorially and with no linear algebra:

* hom spaces have the basis phi_j (top |-> j-th radical layer of the
  target), 0/1 diagonals with disjoint supports for distinct depths, so
  homs are sets of depths, in closed form: Hom(M, N) has the depths
  j = top M - top N (mod e) in [max(0, length N - length M), length N),
  an arithmetic progression of step e; the stable basis is its depths
  below L - length M, and a minimal approximation is the set of basis
  copies that no other copy maps onto;
* the orthogonal candidates are the e-cliques of the schurian modules
  under "no stable hom either way", found by a bit-mask clique search
  that takes one member of each top in turn;
* extension middles (pushouts) are read off intervals of degrees: in a
  grading where every serial summand is an interval containing 0, a bar
  dominated by another splits off unchanged and the rest glue pairwise
  (see _pushout_middle);
* extension closures are decided in two tiers: a sound fixpoint closure
  under layer steps whose middle is one strand plus projectives proves
  membership from the pushouts of classes nonzero on every summand (no
  other class adds a strand), and hom-vanishing certificates prove
  non-membership; a query neither tier decides raises
  GenerationUndecided.  The fixpoint keeps, for each system member z,
  a bucket of the members m with Ext^1(z, m) != 0 and their stable bases,
  and pairs a new member only within the buckets it joins: a class
  nonzero on both summands needs Ext support on both, so no strand is
  lost.  The fixpoint stops as soon as it holds every simple, and then
  no certificate is needed: by the radical series,
  0 -> M(t+1, l-1) -> M(t, l) -> S_t -> 0 with l < L has non-projective
  ends and middle, so by induction on l the simples generate every
  non-projective indecomposable.  A candidate system S generates exactly
  when its closure is everything, so is_sms decides generation through
  ext_closure (see NakayamaAlgebra.ext_closure);
* each closure is computed once per algebra and subset, and also
  answers its mirror image: D carries extension-closed
  subcategories to extension-closed subcategories, so the closure of
  D(U) is D of the closure of U;
* tau, Omega and the exact duality D permute the orthogonal candidates
  and keep whether each one is a system; D inverts tau and Omega, so they
  generate at most 4e maps, and all_sms decides generation by the closure
  alone, once per orbit walked with the public tau, omega and dual;
* left mutation triangles are realized as pushouts in mod A followed by
  stripping projective summands; right mutation is left mutation
  conjugated by the duality D of N(e, L), D M(t, l) = M(-(t+l-1), l),
  which reverses arrows, swaps Omega with Omega^{-1} and left with right
  approximations.
"""

from __future__ import annotations

import itertools

from .values import Value, _set


class BoundExceededError(ValueError):
    """A search was asked to run beyond its configured desk-scale bound."""


class NotAnSmsError(ValueError):
    pass


class NuStabilityError(ValueError):
    pass


class GenerationUndecided(RuntimeError):
    """Neither the closure nor the vanishing certificates decide a query."""


class ConeDecompositionError(RuntimeError):
    """A module decomposition broke an invariant of the serial theory."""


class SerialModule(Value):
    """The serial module M(top, length); ordered by (top, length)."""

    __slots__ = ("top", "length")
    top: int
    length: int

    # Generation builds, hashes and sorts millions of these, so the value
    # methods are written out rather than inherited.
    def __init__(self, top: int, length: int):
        _set(self, "top", top)
        _set(self, "length", length)

    def __hash__(self):
        return hash((self.top, self.length))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.top, self.length) == (other.top, other.length)
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.top, self.length) < (other.top, other.length)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.top, self.length) <= (other.top, other.length)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.top, self.length) > (other.top, other.length)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.top, self.length) >= (other.top, other.length)
        return NotImplemented

    def __str__(self):
        return f"({self.top},{self.length})"


Multiset = tuple[SerialModule, ...]


def _canon(mods) -> Multiset:
    return tuple(sorted(mods))


def _orbit(mods, maps) -> set[Multiset]:
    """The orbit of a module set under the group generated by `maps`, each a
    bijection of the non-projectives, walked until nothing new appears."""
    orbit, frontier = set(), [_canon(mods)]
    while frontier:
        s = frontier.pop()
        if s not in orbit:
            orbit.add(s)
            frontier.extend(_canon(g(m) for m in s) for g in maps)
    return orbit


def _json_modules(mods) -> list[list[int]]:
    """A module list as JSON: `[[top, length], ...]`."""
    return [[m.top, m.length] for m in mods]


class NakayamaAlgebra:
    """Model of N(e, L); immutable after construction, caches fill idempotently."""

    def __init__(self, num_simples: int, loewy_length: int):
        if num_simples < 1 or loewy_length < 2:
            raise ValueError("need e >= 1 and L >= 2")
        self.e = num_simples
        self.L = loewy_length
        self._middles_cache: dict[tuple[Multiset, SerialModule], tuple] = {}
        self._closure_cache: dict[Multiset, Multiset] = {}

    def __repr__(self):
        return f"NakayamaAlgebra({self.e}, {self.L})"

    def _col(self, c: int) -> int:
        return (c - 1) % self.e + 1

    def module(self, top: int, length: int) -> SerialModule:
        if not 1 <= length <= self.L:
            raise ValueError(f"length must be in [1,{self.L}]")
        return SerialModule(self._col(top), length)

    def is_projective(self, m: SerialModule) -> bool:
        return m.length == self.L

    def simples(self) -> Multiset:
        return tuple(SerialModule(i, 1) for i in range(1, self.e + 1))

    def projective(self, i: int) -> SerialModule:
        return SerialModule(self._col(i), self.L)

    def indecomposables(self) -> Multiset:
        """All indecomposable non-projectives, canonically ordered."""
        return _canon(
            SerialModule(t, l)
            for t in range(1, self.e + 1)
            for l in range(1, self.L)
        )

    def factors(self, m: SerialModule) -> list[int]:
        """Composition factors top to socle."""
        return [self._col(m.top + j) for j in range(m.length)]

    def socle(self, m: SerialModule) -> int:
        return self._col(m.top + m.length - 1)

    # --- hom spaces -----------------------------------------------------

    def hom_depths(self, m: SerialModule, n: SerialModule) -> range:
        """Depths j with phi_j : M -> N, top |-> (j-th layer of N), a module map.

        The image of phi_j is the bottom length(N) - j layers of N, a
        quotient of M exactly when j >= length(N) - length(M), and layer j
        of N is the simple top(N) + j.  So the depths are the progression
        j = top(M) - top(N) (mod e) on [max(0, length(N) - length(M)),
        length(N)).
        """
        lo = max(0, n.length - m.length)
        return range(lo + (m.top - n.top - lo) % self.e, n.length, self.e)

    def stable_hom_basis(self, m: SerialModule, n: SerialModule) -> tuple[int, ...]:
        """Depths whose maps form a basis of Hom(M,N) modulo projectives.

        A map factors through a projective exactly when it factors through
        the projective cover P(top N), whose maps from M are the phi_j with
        j >= L - length(M).  Distinct depths have disjoint supports, so
        those phi_j span the projectively trivial maps and the rest are a
        basis of the quotient: the hom_depths progression cut off at
        min(length(N), L - length(M)).
        """
        lo = max(0, n.length - m.length)
        stop = min(n.length, self.L - m.length)
        return tuple(range(lo + (m.top - n.top - lo) % self.e, stop, self.e))

    def stable_hom_dim(self, m: SerialModule, n: SerialModule) -> int:
        if self.is_projective(m) or self.is_projective(n):
            raise ValueError("stable homs are defined between non-projectives")
        return len(self.stable_hom_basis(m, n))

    # --- syzygies and the Nakayama permutation --------------------------

    def omega(self, m: SerialModule) -> SerialModule:
        """Kernel of the projective cover P(top M) ->> M."""
        if self.is_projective(m):
            raise ValueError("omega of a projective is zero")
        return SerialModule(self._col(m.top + m.length), self.L - m.length)

    def omega_inv(self, m: SerialModule) -> SerialModule:
        if self.is_projective(m):
            raise ValueError("omega_inv of a projective is zero")
        return SerialModule(self._col(m.top - (self.L - m.length)), self.L - m.length)

    def nu(self, m: SerialModule) -> SerialModule:
        """Nakayama permutation on isoclasses, from soc P(i) = S_{i+L-1}."""
        return SerialModule(self._col(m.top - (self.L - 1)), m.length)

    def tau(self, m: SerialModule) -> SerialModule:
        """AR translate; equals nu . omega^2 (checked by the test suite)."""
        if self.is_projective(m):
            raise ValueError("tau of a projective is undefined")
        return SerialModule(self._col(m.top + 1), m.length)

    def tau_inv(self, m: SerialModule) -> SerialModule:
        if self.is_projective(m):
            raise ValueError("tau_inv of a projective is undefined")
        return SerialModule(self._col(m.top - 1), m.length)

    def dual(self, m: SerialModule) -> SerialModule:
        """The duality D = Hom_k(-, k), which reverses the composition factors.

        N(e, L) is isomorphic to its opposite algebra through i -> -i, so D
        lands in N(e, L) again: D M(t, l) = M(-(t+l-1), l).  D is an
        involution, sends systems to systems, and D nu = nu^{-1} D.
        """
        return SerialModule(self._col(1 - m.top - m.length), m.length)

    def _dual_all(self, mods) -> Multiset:
        return _canon(self.dual(m) for m in mods)

    # --- orthogonality, wsms --------------------------------------------

    def is_orthogonal_system(self, mods) -> bool:
        """Distinct non-projectives, each with one-dimensional stable End,
        and no nonzero stable Hom between two of them."""
        mods = _canon(mods)
        return (
            len(set(mods)) == len(mods)
            and all(not self.is_projective(m) and self.stable_hom_dim(m, m) == 1 for m in mods)
            and all(m == n or self.stable_hom_dim(m, n) == 0 for m in mods for n in mods)
        )

    def is_wsms(self, mods) -> bool:
        """Orthogonality plus: every indecomposable maps onto the system."""
        if not self.is_orthogonal_system(mods):
            return False
        members = set(_canon(mods))
        for x in self.indecomposables():
            if not any(self.stable_hom_dim(x, s) for s in members):
                return False
        return True

    # --- generation -----------------------------------------------------

    def ext_closure(self, mods) -> Multiset:
        """Indecomposables of the smallest extension-closed stable subcategory.

        Two tiers decide each indecomposable y, fastest first: the
        single-strand closure proves membership, and hom-vanishing
        certificates prove non-membership (stable homs out of or into U
        are subadditive along triangles, so a nonzero stable hom between y
        and U's two-sided vanishing sets rules y out).  A y that neither
        tier decides raises GenerationUndecided rather than guessing.
        When the single-strand closure reaches every simple, it returns
        indecomposables() itself and no vanishing set is built: M(t, l) is
        an extension of S_t by its radical M(t+1, l-1), so the simples
        generate every non-projective.  Such a closure may thus answer a
        query that the layer steps alone would leave undecided.
        A projective in `mods` raises ValueError, naming it, before any
        closure is computed: it is zero in the stable category and has no
        Omega to pair with.

        Cached per algebra.  A computed closure C of U is also stored as the
        closure D(C) of D(U): the duality D is exact, so it carries
        extension-closed subcategories to extension-closed ones.  Right
        mutation runs left mutation on dual arguments, so the mutation
        search meets most subsets together with their duals and computes
        one closure per pair.  Both tiers are sound, so a closure
        that returns is the true one; a dual entry may therefore answer a
        query that direct computation would refuse with
        GenerationUndecided.
        """
        key = _canon(set(mods))
        if not key:
            return ()
        closure = self._closure_cache.get(key)
        if closure is not None:
            return closure
        for m in key:
            if self.is_projective(m):
                raise ValueError(f"extension closures are of non-projectives, not {m}")
        ind = self.indecomposables()
        strands = self._single_strand_closure(key)
        if len(strands) == len(ind):
            closure = dual = ind
        else:
            vanish_out = [w for w in ind if all(self.stable_hom_dim(s, w) == 0 for s in key)]
            vanish_in = [w for w in ind if all(self.stable_hom_dim(w, s) == 0 for s in key)]
            for y in ind:
                if y not in strands and not any(
                    self.stable_hom_dim(y, w) for w in vanish_out
                ) and not any(self.stable_hom_dim(w, y) for w in vanish_in):
                    raise GenerationUndecided(
                        f"cannot decide whether {y} is generated by {[str(m) for m in key]}"
                    )
            closure = tuple(y for y in ind if y in strands)
            dual = self._dual_all(closure)
        self._closure_cache[key] = closure
        self._closure_cache[self._dual_all(key)] = dual
        return closure

    def is_sms(self, mods) -> bool:
        """Orthogonality plus generation: the extension closure of the system
        holds all e(L-1) non-projectives.

        Generation is decided by ext_closure alone, so the answer is cached
        with the closure, and the dual entry answers for D(system).  The
        certificates only rule modules out, so an accepted system is one
        whose single-strand closure reached every simple; by the radical
        series M(t, l) = S_t extended by M(t+1, l-1), the simples then
        generate everything.  Any other orthogonal candidate builds
        vanishing sets, and is rejected or raises GenerationUndecided.
        """
        full = self.e * (self.L - 1)
        return self.is_orthogonal_system(mods) and len(self.ext_closure(mods)) == full

    def _single_strand_closure(self, system: Multiset) -> frozenset:
        """Fixpoint of layer steps whose middle is one strand plus projectives.

        Sub-objects run over one- and two-part multisets from the closure,
        quotients over single system members; every such step is literally
        a generation step, so membership here is sound.  The steps are
        monotone in the closure, so a worklist reaches the same least
        fixpoint as repeated full passes: each member is taken once and
        tried only in the sub-objects that contain it, paired with itself
        and the members taken before it.

        Those pairs are indexed by Ext support.  Each system member z has a
        bucket: the members taken so far with a nonzero stable
        Hom(Omega z, m) = Ext^1(z, m), each with its stable basis, so that
        basis is computed once per (z, m).  A newly taken x is tried alone
        and paired only with the members of the buckets it joins, itself
        included.  No strand is lost: a class nonzero on every summand
        needs a nonzero depth on each, so a pair outside a common bucket
        has no such class.

        The worklist stops once the closure holds every simple and returns
        indecomposables(): by the radical series, 0 -> M(t+1, l-1) ->
        M(t, l) -> S_t -> 0 with l < L is a triangle with non-projective
        ends and middle, so by induction on l the extension closure of the
        simples is every non-projective.  This is the one stop rule; a
        closure of all e(L-1) non-projectives holds every simple.  What it
        returns then is the true extension closure; that may exceed the
        fixpoint of the layer steps alone, though on no input the tests
        check does it.

        Only classes that are nonzero on every summand of the sub-object are
        built, one pushout per full depth vector.  This loses no strand: a
        class that is zero on a summand y leaves y as its own non-projective
        strand, so its middle either has two strands or is the single strand
        y, which is already in the closure.
        """
        closure = set(system)
        missing = self.e - sum(m.length == 1 for m in closure)
        work = list(system)
        buckets = [(z, self.omega(z), {}) for z in system]
        while work and missing:
            x = work.pop()
            for z, om, bucket in buckets:
                basis = self.stable_hom_basis(om, x)
                if not basis:
                    continue
                bucket[x] = basis
                for sub in [(x,)] + [(x, y) for y in bucket]:
                    for depths in itertools.product(*(bucket[m] for m in sub)):
                        middle = self._pushout_middle(z, tuple(zip(sub, depths)))
                        strands = self._strip_projectives(middle)
                        if len(strands) == 1 and strands[0] not in closure:
                            closure.add(strands[0])
                            work.append(strands[0])
                            missing -= strands[0].length == 1
        return frozenset(closure if missing else self.indecomposables())

    def _require_size(self, bound: int):
        """Raise BoundExceededError when e(L-1) exceeds a search's bound."""
        if self.e * (self.L - 1) > bound:
            raise BoundExceededError(f"e*(L-1) = {self.e * (self.L - 1)} exceeds bound {bound}")

    def all_sms(self, bound: int = 24) -> list[Multiset]:
        """All simple-minded systems, by orthogonal-clique search + generation.

        Candidates are orthogonal by construction, so one is a system when
        its extension closure holds all e(L-1) non-projectives.  tau, Omega
        and D keep candidates and systems, so the first candidate met
        decides its whole <tau, Omega, D>-orbit.  As with the dual entries
        of the closure cache, a member may thus be answered where a direct
        is_sms query would raise GenerationUndecided.
        """
        self._require_size(bound)
        full = self.e * (self.L - 1)
        candidates = self.orthogonal_candidates()
        verdict: dict[Multiset, bool] = {}
        for s in candidates:
            if s not in verdict:
                ok = len(self.ext_closure(s)) == full
                verdict.update(dict.fromkeys(_orbit(s, (self.tau, self.omega, self.dual)), ok))
        return sorted(s for s in candidates if verdict[s])

    def orthogonal_candidates(self) -> list[Multiset]:
        """All e-element orthogonal systems with one-dimensional stable End,
        as increasing index sequences in the lexicographic order of the
        schurian modules.

        A clique search on bit masks: compat[i] holds the later schurian
        modules with no stable hom to or from module i.  A node is the
        chosen members and the pool of modules compatible with all of them
        and later than the last; it branches on the pool's lowest module,
        taking it before leaving it out, so candidates come out in index
        order.  A node is cut when the pool holds fewer modules than are
        still needed, or when its lowest module's top is not the next
        one.  The second cut holds for every orthogonal e-set: for
        l < l' < L the projection M(t, l') ->> M(t, l) is stably nonzero
        (its depth 0 is below L - l'), so two members never share a top,
        and e members have each of the e tops once, in index order.  The
        walk keeps an explicit stack, so an algebra with thousands of
        simples does not recurse once per member.
        """
        mods = [m for m in self.indecomposables() if self.stable_hom_dim(m, m) == 1]
        compat = [
            sum(
                1 << k
                for k in range(i + 1, len(mods))
                if self.stable_hom_dim(a, mods[k]) == 0 and self.stable_hom_dim(mods[k], a) == 0
            )
            for i, a in enumerate(mods)
        ]
        out: list[Multiset] = []
        stack = [((), (1 << len(mods)) - 1)]
        while stack:
            chosen, pool = stack.pop()
            if len(chosen) == self.e:
                out.append(chosen)
                continue
            low = pool & -pool
            i = low.bit_length() - 1
            if pool.bit_count() < self.e - len(chosen) or mods[i].top != len(chosen) + 1:
                continue
            stack.append((chosen, pool ^ low))
            stack.append((chosen + (mods[i],), pool & compat[i]))
        return out

    # --- approximations and mutation ------------------------------------

    def minimal_left_approximation(self, m: SerialModule, subcat) -> tuple:
        """Minimal left add(subcat)-approximation of m in the stable category,
        as its sorted copies (summand t, depth d of the basis map m -> t).

        The stable basis maps m -> t, t in subcat, are the candidate copies
        (t, d).  A copy (u, c) maps onto the copy (t, d) when phi_d factors
        as phi_{d-c} . phi_c, i.e. when d - c is in hom_depths(u, t).  The
        composite of two such factorings is again one (d < length(t), so
        it stays nonzero), and two distinct copies never map onto each
        other, so this is a strict partial order.  The minimal
        approximation keeps exactly the copies no other copy maps onto.
        """
        subcat = _canon(set(subcat))
        copies = [(t, d) for t in subcat for d in self.stable_hom_basis(m, t)]
        minimal = [
            (t, d)
            for t, d in copies
            if not any(
                (u, c) != (t, d) and d - c in self.hom_depths(u, t) for u, c in copies
            )
        ]
        return tuple(sorted(minimal))

    def minimal_right_approximation(self, m: SerialModule, subcat) -> tuple:
        """Minimal right add(subcat)-approximation of m: D of the left one of D m,
        as its sorted copies (summand u, depth of the image of u in m).

        D turns phi_j : D m -> D u into a map u -> m whose image is the
        bottom length(u) - j layers of m, so its depth in m is
        length(m) - length(u) + j.
        """
        left = self.minimal_left_approximation(self.dual(m), self._dual_all(subcat))
        return tuple(sorted((self.dual(u), m.length - u.length + j) for u, j in left))

    def _strip_projectives(self, mods: Multiset) -> Multiset:
        return _canon(m for m in mods if not self.is_projective(m))

    def _pushout_middle(self, m: SerialModule, copies) -> Multiset:
        """Middle of the extension of m classified by the map Omega(m) -> sum of copies.

        Pushout of the projective presentation of m along the stacked depth
        maps, as a full summand multiset (projectives included).  Give
        degree s the colour col(top m + l + s), l = length(m): each summand
        is a bar of degrees containing 0, Omega(m) = [0, L-l-1], the cover
        P(top m) = [-l, L-l-1] and a copy (x, d) = [-d, length(x)-1-d]; the
        middle is the cokernel of Omega(m) mapped diagonally into the sum.
        Split-off: (b, c) is dominated when another bar has b' >= b and
        c' >= c (of equal bars, all but one are).  For bars containing 0
        that is when Hom((b', c'), (b, c)) != 0, by a map that is the
        identity in degree 0, so an automorphism of the sum clears the
        component and the bar goes into the middle unchanged.  Gluing: the
        rest, by increasing b, have decreasing c, and their cokernel is
        [b_i, c_{i+1}] for consecutive pairs plus [b_k, -1].  A nonempty bar
        [b, c] is the serial module M(col(top m + l + b), c - b + 1).
        """
        l = m.length
        bars = [(-l, self.L - l - 1)] + [(-d, x.length - 1 - d) for x, d in copies]
        kept, out = [], []
        for b, c in sorted(bars, reverse=True):
            # the bars before have b' >= b, and kept[-1] has the largest c'
            (out if kept and c <= kept[-1][1] else kept).append((b, c))
        kept.reverse()
        out += [(b, c) for (b, _), (_, c) in zip(kept, kept[1:])]
        out.append((kept[-1][0], -1))
        return _canon(
            SerialModule(self._col(m.top + l + b), c - b + 1) for b, c in out if b <= c
        )

    def _sole_nonprojective(self, mods: Multiset) -> SerialModule:
        nonproj = self._strip_projectives(mods)
        if len(nonproj) != 1:
            raise ConeDecompositionError(
                f"mutation cone decomposed as {[str(m) for m in mods]}"
            )
        return nonproj[0]

    def extension_middles(self, sub: Multiset, quot: SerialModule) -> tuple[Multiset, ...]:
        """Middles of all non-split stable extensions of `quot` by `sub`.

        Classes in Ext^1(quot, sub) = stable Hom(Omega quot, sub) reduce,
        component by component up to automorphisms of the ends, to depth
        maps from the stable bases; one pushout per depth vector lists
        every middle.

        The package no longer calls this: _single_strand_closure builds only
        the full-support pushouts itself.  It stays as the tests' reference
        closure and as a name the benchmark tracer counts.
        """
        key = (_canon(sub), quot)
        cached = self._middles_cache.get(key)
        if cached is None:
            om = self.omega(quot)
            choices = [
                [None] + list(self.stable_hom_basis(om, x)) for x in key[0]
            ]
            middles = set()
            for assign in itertools.product(*choices):
                copies = tuple(
                    (x, d) for x, d in zip(key[0], assign) if d is not None
                )
                untouched = tuple(
                    x for x, d in zip(key[0], assign) if d is None
                )
                if not copies:
                    continue  # split extension: no new strands
                middles.add(_canon(self._pushout_middle(quot, copies) + untouched))
            cached = tuple(sorted(middles))
            self._middles_cache[key] = cached
        return cached

    def _require_sms(self, system: Multiset):
        if not self.is_sms(system):
            raise NotAnSmsError(f"{[str(m) for m in system]} is not an sms")

    def _check_mutation_args(self, system, subset):
        system = _canon(system)
        subset = _canon(subset)
        if not set(subset) <= set(system):
            raise NotAnSmsError("mutation subset must lie inside the system")
        self._require_sms(system)
        if _canon(self.nu(m) for m in subset) != subset:
            raise NuStabilityError("mutation subset is not Nakayama-stable")
        return system, subset

    def mutate_left(self, system, subset) -> Multiset:
        """Left mutation: shift the subset by Omega^{-1}, cone off the rest."""
        return self._mutate(*self._check_mutation_args(system, subset), "left")

    def mutate_right(self, system, subset) -> Multiset:
        """Right mutation: shift the subset by Omega, cocone off the rest."""
        return self._mutate(*self._check_mutation_args(system, subset), "right")

    def _mutate(self, system: Multiset, subset: Multiset, direction: str) -> Multiset:
        """Mutation of a canonical system at a canonical Nakayama-stable subset
        of it, unchecked.

        D reverses triangles and swaps Omega with Omega^{-1}, so right
        mutation at X is D of left mutation of D(system) at D(X).
        """
        if direction == "right":
            left = self._mutate(self._dual_all(system), self._dual_all(subset), "left")
            return self._dual_all(left)
        closure = self.ext_closure(subset)
        out = []
        for m in system:
            if m in subset:
                out.append(self.omega_inv(m))
                continue
            copies = self.minimal_left_approximation(self.omega(m), closure)
            if not copies:
                out.append(m)  # zero approximation: cone is Omega^{-1}Omega(m)
            else:
                out.append(self._sole_nonprojective(self._pushout_middle(m, copies)))
        return _canon(out)

    # --- transport to mesh coordinates -----------------------------------

    def ar_coordinate(self, m: SerialModule) -> tuple[int, int]:
        """Position of a non-projective on the window of ZA_{L-1}.

        The anchor puts the simple S_1 at (0, 1); arrows and tau then force
        (p, q) = (2 - top - length, length), with levels mod e in the
        quotient.
        """
        if self.is_projective(m):
            raise ValueError("projectives do not live on the stable quiver")
        return (2 - m.top - m.length, m.length)

    def transport(self, mods, quiver) -> frozenset:
        """Image of a set of modules in the canonical ZA_{L-1}/<tau^e> quotient."""
        return frozenset(quiver.canonical(self.ar_coordinate(m)) for m in mods)

    def render_factors(self, m: SerialModule) -> str:
        return "/".join(str(c) for c in self.factors(m))


def parse_algebra(text: str) -> NakayamaAlgebra:
    """Parse an algebra string of the form `nakayama:e:L`."""
    parts = text.strip().split(":")
    if len(parts) != 3 or parts[0] != "nakayama" or not all(
        p.isdecimal() for p in parts[1:]
    ):
        raise ValueError(f"cannot parse algebra {text!r}; expected nakayama:e:L")
    return NakayamaAlgebra(int(parts[1]), int(parts[2]))
