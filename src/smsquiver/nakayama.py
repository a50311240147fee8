"""Explicit stable module category of a self-injective Nakayama algebra.

The algebra N(e, L) is the cyclic-quiver Nakayama algebra with `e` simples
and Loewy length `L` (arrows i -> i+1 mod e, paths of length L vanish).
Indecomposables are the serial modules M(t, l) with top t and length
l <= L; M(t, L) is the projective cover P(t).  The composition factors of
M(t, l) are t, t+1, ..., t+l-1 read top to socle.

Everything is computed exactly, combinatorially and with no linear algebra:

* hom spaces have the basis phi_j (top |-> j-th radical layer of the
  target), 0/1 diagonals with disjoint supports for distinct depths, so
  homs are sets of depths: the stable basis is the depths below
  L - length(source), and a minimal approximation is the set of basis
  copies that no other copy maps onto;
* extension middles (pushouts) are read off intervals of degrees: in a
  grading where every serial summand is an interval containing 0, a bar
  dominated by another splits off unchanged and the rest glue pairwise
  (see _pushout_middle);
* the generation condition of a candidate system S is decided in two
  tiers: a sound fixpoint closure under layer steps whose middle is one
  strand plus projectives proves membership, and hom-vanishing
  certificates prove non-membership; a query neither tier decides raises
  GenerationUndecided (see _GenerationEngine);
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

    # The generation engine builds, hashes and sorts millions of these, so
    # the value methods are written out rather than inherited.
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


class NakayamaAlgebra:
    """Model of N(e, L); immutable after construction, caches fill idempotently."""

    def __init__(self, num_simples: int, loewy_length: int):
        if num_simples < 1 or loewy_length < 2:
            raise ValueError("need e >= 1 and L >= 2")
        self.e = num_simples
        self.L = loewy_length
        self._middles_cache: dict[tuple[Multiset, SerialModule], tuple] = {}
        self._sms_cache: dict[Multiset, bool] = {}

    def __repr__(self):
        return f"NakayamaAlgebra({self.e}, {self.L})"

    def _col(self, c: int) -> int:
        return (c - 1) % self.e + 1

    @property
    def is_symmetric(self) -> bool:
        return (self.L - 1) % self.e == 0

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

    def hom_depths(self, m: SerialModule, n: SerialModule) -> list[int]:
        """Depths j with phi_j : M -> N, top |-> (j-th layer of N), a module map."""
        lo = max(0, n.length - m.length)
        return [
            j
            for j in range(lo, n.length)
            if self._col(n.top + j) == m.top
        ]

    def hom_dim(self, m: SerialModule, n: SerialModule) -> int:
        return len(self.hom_depths(m, n))

    def stable_hom_basis(self, m: SerialModule, n: SerialModule) -> tuple[int, ...]:
        """Depths whose maps form a basis of Hom(M,N) modulo projectives.

        A map factors through a projective exactly when it factors through
        the projective cover P(top N), whose maps from M are the phi_j with
        j >= L - length(M).  Distinct depths have disjoint supports, so
        those phi_j span the projectively trivial maps and the rest are a
        basis of the quotient.
        """
        return tuple(j for j in self.hom_depths(m, n) if j < self.L - m.length)

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

    def is_orthogonal_system(self, mods) -> tuple[bool, str]:
        mods = _canon(mods)
        if len(set(mods)) != len(mods):
            return False, "members must be pairwise distinct"
        for m in mods:
            if self.is_projective(m):
                return False, f"{m} is projective"
            d = self.stable_hom_dim(m, m)
            if d != 1:
                return False, f"stable End{m} has dimension {d} != 1"
        for m in mods:
            for n in mods:
                if m != n and self.stable_hom_dim(m, n) != 0:
                    return False, f"stable Hom({m},{n}) != 0"
        return True, "orthogonal"

    def is_wsms(self, mods) -> bool:
        """Orthogonality plus: every indecomposable maps onto the system."""
        ok, _ = self.is_orthogonal_system(mods)
        if not ok:
            return False
        members = set(_canon(mods))
        for x in self.indecomposables():
            if not any(self.stable_hom_dim(x, s) for s in members):
                return False
        return True

    # --- generation -----------------------------------------------------

    def generation_engine(self, system) -> "_GenerationEngine":
        return _GenerationEngine(self, _canon(system))

    def ext_closure(self, mods) -> Multiset:
        """Indecomposables of the smallest extension-closed stable subcategory."""
        mods = _canon(set(mods))
        if not mods:
            return ()
        engine = self.generation_engine(mods)
        return _canon(y for y in self.indecomposables() if engine.generated(y))

    def is_sms(self, mods) -> bool:
        """Orthogonality plus the layered generation condition."""
        mods = _canon(mods)
        cached = self._sms_cache.get(mods)
        if cached is not None:
            return cached
        ok, _ = self.is_orthogonal_system(mods)
        result = False
        if ok:
            engine = self.generation_engine(mods)
            members = set(mods)
            result = all(
                y in members or engine.generated(y) for y in self.indecomposables()
            )
        self._sms_cache[mods] = result
        return result

    def all_sms(self, bound: int = 24) -> list[Multiset]:
        """All simple-minded systems, by orthogonal-clique search + generation."""
        if self.e * (self.L - 1) > bound:
            raise BoundExceededError(
                f"e*(L-1) = {self.e * (self.L - 1)} exceeds bound {bound}"
            )
        found = [s for s in self.orthogonal_candidates() if self.is_sms(s)]
        return sorted(found)

    def orthogonal_candidates(self) -> list[Multiset]:
        """All e-element orthogonal systems with one-dimensional stable End."""
        mods = [
            m
            for m in self.indecomposables()
            if self.stable_hom_dim(m, m) == 1
        ]
        compatible = {
            (a, b)
            for a in mods
            for b in mods
            if a != b
            and self.stable_hom_dim(a, b) == 0
            and self.stable_hom_dim(b, a) == 0
        }
        out: list[Multiset] = []

        def extend(start: int, chosen: list[SerialModule]):
            if len(chosen) == self.e:
                out.append(tuple(chosen))
                return
            # start only where enough modules remain to reach e members
            for k in range(start, len(mods) - (self.e - len(chosen)) + 1):
                m = mods[k]
                if all((m, c) in compatible for c in chosen):
                    chosen.append(m)
                    extend(k + 1, chosen)
                    chosen.pop()

        extend(0, [])
        return out

    # --- approximations and mutation ------------------------------------

    def minimal_left_approximation(self, m: SerialModule, subcat) -> "Approximation":
        """Minimal left add(subcat)-approximation of m in the stable category.

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
        return Approximation(m, tuple(sorted(minimal)))

    def minimal_right_approximation(self, m: SerialModule, subcat) -> "Approximation":
        """Minimal right add(subcat)-approximation of m: D of the left one of D m.

        D turns phi_j : D m -> D u into a map u -> m whose image is the
        bottom length(u) - j layers of m, so its depth in m is
        length(m) - length(u) + j.
        """
        left = self.minimal_left_approximation(self.dual(m), self._dual_all(subcat))
        return Approximation(
            m,
            tuple(sorted((self.dual(u), m.length - u.length + j) for u, j in left.copies)),
        )

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

    def extension_middles(self, sub: Multiset | SerialModule, quot: SerialModule) -> tuple[Multiset, ...]:
        """Middles of all non-split stable extensions of `quot` by `sub`.

        Classes in Ext^1(quot, sub) = stable Hom(Omega quot, sub) reduce,
        component by component up to automorphisms of the ends, to depth
        maps from the stable bases; one pushout per depth vector lists
        every middle.
        """
        if isinstance(sub, SerialModule):
            sub = (sub,)
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

    def _check_mutation_args(self, system, subset):
        system = _canon(system)
        subset = _canon(subset)
        if not set(subset) <= set(system):
            raise NotAnSmsError("mutation subset must lie inside the system")
        if not self.is_sms(system):
            raise NotAnSmsError(f"{[str(m) for m in system]} is not an sms")
        if _canon(self.nu(m) for m in subset) != subset:
            raise NuStabilityError("mutation subset is not Nakayama-stable")
        return system, subset

    def mutate_left(self, system, subset) -> Multiset:
        """Left mutation: shift the subset by Omega^{-1}, cone off the rest."""
        return self._mutate_left_body(*self._check_mutation_args(system, subset))

    def _mutate_left_body(self, system: Multiset, subset: Multiset) -> Multiset:
        closure = self.ext_closure(subset)
        out = []
        for m in system:
            if m in subset:
                out.append(self.omega_inv(m))
                continue
            appr = self.minimal_left_approximation(self.omega(m), closure)
            if not appr.copies:
                out.append(m)  # zero approximation: cone is Omega^{-1}Omega(m)
            else:
                out.append(self._sole_nonprojective(self._pushout_middle(m, appr.copies)))
        return _canon(out)

    def mutate_right(self, system, subset) -> Multiset:
        """Right mutation: shift the subset by Omega, cocone off the rest.

        D reverses triangles and swaps Omega with Omega^{-1}, so right
        mutation at X is D of left mutation of D(system) at D(X).
        """
        system, subset = self._check_mutation_args(system, subset)
        dual = self._mutate_left_body(self._dual_all(system), self._dual_all(subset))
        return self._dual_all(dual)

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


class Approximation(Value):
    """A stacked stable map between a module and add of a subcategory.

    `copies` lists (summand, depth of the chosen basis map); the stacked
    map is a minimal left or right approximation of `module`.
    """

    __slots__ = ("module", "copies")
    module: SerialModule
    copies: tuple

    @property
    def summands(self) -> Multiset:
        return _canon(t for t, _ in self.copies)


class _GenerationEngine:
    """Decides generation of indecomposables from a fixed system.

    Two tiers, fastest first:

    1. a sound fixpoint closure under single extensions whose middles are
       one non-projective strand plus projectives (each step is literally
       a layer step of the generation condition), which proves membership;
    2. hom-vanishing certificates: stable homs out of or into the system
       are subadditive along triangles, so a nonzero stable hom between Y
       and the system's two-sided vanishing sets rules Y out.

    A query that neither tier decides raises GenerationUndecided rather
    than guessing.  Extension middles are cached on the algebra and shared
    between systems and candidates.
    """

    def __init__(self, algebra: NakayamaAlgebra, system: Multiset):
        self.algebra = algebra
        self.system = system
        self._closure: frozenset | None = None
        self._vanish_out: frozenset | None = None
        self._vanish_in: frozenset | None = None

    def generated(self, y: SerialModule) -> bool:
        if y in self.system or y in self._single_strand_closure():
            return True
        if self._certified_out(y):
            return False
        raise GenerationUndecided(
            f"cannot decide whether {y} is generated by "
            f"{[str(m) for m in self.system]}"
        )

    def _single_strand_closure(self) -> frozenset:
        """Fixpoint of layer steps whose middle is one strand plus projectives.

        Sub-objects run over one- and two-part multisets from the closure,
        quotients over single system members; every such step is literally
        a generation step, so membership here is sound.  The steps are
        monotone in the closure, so a worklist reaches the same least
        fixpoint as repeated full passes: each member is taken once and
        tried only in the sub-objects that contain it, paired with itself
        and the members taken before it.
        """
        if self._closure is None:
            A = self.algebra
            closure = set(self.system)
            work = list(self.system)
            taken: list[SerialModule] = []
            while work:
                x = work.pop()
                taken.append(x)
                for sub in [(x,)] + [_canon((x, y)) for y in taken]:
                    for z in self.system:
                        for middle in A.extension_middles(sub, z):
                            strands = A._strip_projectives(middle)
                            if len(strands) == 1 and strands[0] not in closure:
                                closure.add(strands[0])
                                work.append(strands[0])
            self._closure = frozenset(closure)
        return self._closure

    def _certified_out(self, y: SerialModule) -> bool:
        """Nonzero stable hom against a vanishing set of the system."""
        A = self.algebra
        if self._vanish_out is None:
            ind = A.indecomposables()
            self._vanish_out = frozenset(
                w for w in ind if all(A.stable_hom_dim(s, w) == 0 for s in self.system)
            )
            self._vanish_in = frozenset(
                w for w in ind if all(A.stable_hom_dim(w, s) == 0 for s in self.system)
            )
        return any(A.stable_hom_dim(y, w) for w in self._vanish_out) or any(
            A.stable_hom_dim(w, y) for w in self._vanish_in
        )


def parse_algebra(text: str) -> NakayamaAlgebra:
    """Parse an algebra string of the form `nakayama:e:L`."""
    parts = text.strip().split(":")
    if len(parts) != 3 or parts[0] != "nakayama" or not all(
        p.isdecimal() for p in parts[1:]
    ):
        raise ValueError(f"cannot parse algebra {text!r}; expected nakayama:e:L")
    return NakayamaAlgebra(int(parts[1]), int(parts[2]))
