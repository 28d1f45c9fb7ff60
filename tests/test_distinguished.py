"""Tests for the distinguished-class predicate and verification sweeps."""

import pytest

from sp2forms import cli, distinguished
from sp2forms.distinguished import (
    _distinct_v_sums,
    _search,
    _within_subquotient_reach,
    is_distinguished,
    repro,
    verify_prop_A,
    verify_prop_A_irr,
    verify_prop_A_tensor,
    verify_prop_C,
    verify_prop_tensor,
)
from sp2forms.enumeration import (
    class_counts,
    epsilon_variants,
    jordan_types,
    partitions,
    symplectic_partitions,
    symplectic_types,
)
from sp2forms.hesselink import EpsilonTaggedType, SymplecticType, orthogonal_sum, tensor_bilinear, vtype, wtype
from sp2forms.jordan import (
    JordanType,
    _tensor_blocks,
    _wedge_block,
    grow_product,
    grow_tensor_square,
    grow_wedge_square,
    tensor,
    wedge_square,
)
from sp2forms.reps import dual_tensor_classes, wedge_square_classes

E = EpsilonTaggedType.parse
S = SymplecticType.parse


class TestPredicate:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("4_1", True),
            ("2_0^2", False),  # hyperbolic summand
            ("2_1^2,6_1^2", True),
            ("2_1^3", False),  # multiplicity three
            ("2_1,3_0^2", False),  # odd size present
            ("8_1^2,10_1", True),
        ],
    )
    def test_examples(self, text, want):
        assert is_distinguished(S(text)) is want

    def test_degenerate_is_never_distinguished(self):
        assert is_distinguished(E("1_0,4_1^2")) is False


class TestSweeps:
    def test_prop_A_tensor(self):
        report = verify_prop_A_tensor(10)
        assert report.ok
        assert report.hits == ["2"]

    def test_prop_A_irr(self):
        report = verify_prop_A_irr(10)
        assert report.ok
        assert report.hits == ["2", "3", "5"]

    def test_prop_tensor(self):
        report = verify_prop_tensor(28)
        assert report.ok
        # every hit pairs a tagged 2-block with a sum of distinct tagged
        # blocks of sizes twice an odd number
        for hit in report.hits:
            left, _, right = hit.partition(" x ")
            assert "2_1" in (left, right)

    def test_prop_C_lists(self):
        report = verify_prop_C(12)
        assert report.ok
        assert "wedge 4_1" in report.hits
        assert "irr 4_1" in report.hits and "irr 2_1^2" in report.hits
        assert "irr 6_1" in report.hits and "irr 10_1" in report.hits
        assert "irr 2_1,10_1" in report.hits
        assert len([h for h in report.hits if h.startswith("wedge")]) == 1

    @pytest.mark.parametrize(
        "sweep,args,checked",
        [
            (verify_prop_C, (22,), 91758),
            (verify_prop_C, (6,), 117),
            (verify_prop_A_tensor, (22,), 4506),
            (verify_prop_C, (9,), 574),
            (verify_prop_A_irr, (22,), 4506),
            (verify_prop_C, (12,), 2256),
            (verify_prop_A_tensor, (10,), 137),
            (verify_prop_A_irr, (10,), 137),
            (verify_prop_tensor, (28,), 484),
            (verify_prop_tensor, (44,), 3312),
        ],
    )
    def test_checked_counts(self, sweep, args, checked):
        # checked is the closed count of every class or pair in range, whatever the search prunes
        assert sweep(*args).checked == checked

    def test_report_json(self):
        data = verify_prop_A_tensor(6).to_json()
        assert data["ok"] is True
        assert data["counterexamples"] == []

    @pytest.mark.parametrize(
        "sweep,args,evaluated",
        [
            (verify_prop_C, (6,), 12),
            (verify_prop_C, (9,), 13),
            (verify_prop_C, (12,), 13),
            (verify_prop_C, (40,), 13),
            (verify_prop_C, (22,), 13),
            (verify_prop_A_tensor, (10,), 8),
            (verify_prop_A_irr, (10,), 8),
            (verify_prop_A_tensor, (22,), 8),
            (verify_prop_A_irr, (22,), 8),
            (verify_prop_tensor, (28,), 14),
            (verify_prop_tensor, (44,), 37),
        ],
    )
    def test_evaluated_counts(self, sweep, args, evaluated):
        # only the classes the search cannot rule out reach the rules engine
        report = sweep(*args)
        assert report.evaluated == evaluated
        assert report.to_json()["evaluated"] == evaluated
        assert f"{report.checked} checked, {evaluated} evaluated" in report.summary()

    def test_prop_C_to_600(self):
        # past the old limit of the recursive class count (a RecursionError at n = 550)
        report = verify_prop_C(600)
        assert report.ok and report.checked == sum(class_counts(1200, True)[4::2])

    def test_sweeps_to_the_cap(self):
        # one search per sweep reaches the command-line cap of 1000 within tier-1
        reports = [verify_prop_A_tensor(1000), verify_prop_A_irr(1000), verify_prop_C(1000)]
        assert all(r.ok for r in reports)
        assert reports[0].hits == ["2"]
        assert reports[1].hits == ["2", "3", "5"]
        assert reports[2].hits == ["wedge 4_1", "irr 4_1", "irr 2_1^2", "irr 6_1", "irr 10_1", "irr 2_1,10_1"]
        assert reports[0].checked == reports[1].checked == sum(class_counts(1000)[2:])
        assert reports[2].checked == sum(class_counts(2000, True)[4::2])

    def test_sweeps_to_100(self):
        # the paper's lists hold far beyond the acceptance bounds
        reports = [verify_prop_A_tensor(100), verify_prop_A_irr(100), verify_prop_C(100)]
        assert all(r.ok for r in reports)
        assert reports[0].hits == ["2"]
        assert reports[1].hits == ["2", "3", "5"]
        assert reports[2].hits == ["wedge 4_1", "irr 4_1", "irr 2_1^2", "irr 6_1", "irr 10_1", "irr 2_1,10_1"]

    def test_pair_sweep_to_200(self):
        # the pair sweep far beyond the acceptance bound, down to the exact count of pairs covered
        report = verify_prop_tensor(200)
        assert report.ok
        assert len(report.hits) == 1212
        assert report.checked == 307214060
        assert report.evaluated <= report.checked

    def test_one_dual_pass_per_command(self, capsys, monkeypatch):
        # both dual tensor reports share one search and one rules call per surviving type;
        # the other search is the wedge sweep's
        calls = {"_search": 0, "dual_tensor_classes": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(distinguished, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(distinguished, name, counted)
        assert cli.main(["distinguished", "--max-n", "22", "--max-dim", "44"]) == 0
        assert capsys.readouterr().out.count("PASS") == 4
        assert calls == {"_search": 2, "dual_tensor_classes": 8}

    @staticmethod
    def _rule_checks(monkeypatch):
        """A counter of the calls to the search's rule, installed for the rest of the test."""
        checks = [0]
        real = distinguished._within_subquotient_reach

        def counted(square):
            checks[0] += 1
            return real(square)

        monkeypatch.setattr(distinguished, "_within_subquotient_reach", counted)
        return checks

    def test_search_work_at_the_benchmark_bounds(self, capsys, monkeypatch):
        # the searches start at the largest parts of Lemmas T and W (157 rule checks without them)
        checks = self._rule_checks(monkeypatch)
        assert cli.main(["distinguished", "--max-n", "22", "--max-dim", "44"]) == 0
        assert capsys.readouterr().out.count("PASS") == 4
        assert checks == [109]

    def test_search_work_at_the_cap(self, monkeypatch):
        # the same work at the cap of 1000 (3,091 checks without the lemmas): past the
        # largest survivor, the bound no longer drives the searches
        checks = self._rule_checks(monkeypatch)
        verify_prop_A(1000)
        verify_prop_C(1000)
        assert checks == [109]

    def test_missing_expected_hits_are_reported(self, monkeypatch):
        # a sweep that sees none of its expected classes says so, with a command to rerun each
        monkeypatch.setattr(distinguished, "is_distinguished", lambda t: False)

        def not_seen(report):
            return [line for line in report.counterexamples if "not seen" in line]

        assert not_seen(verify_prop_A_tensor(6)) == ["2: expected distinguished, not seen; run: sp2forms thmA 2"]
        assert not_seen(verify_prop_A_irr(6)) == [
            f"{n}: expected distinguished, not seen; run: sp2forms thmA {n}" for n in (2, 3, 5)
        ]
        assert not_seen(verify_prop_tensor(12)) == [
            "2_1 x 2_1: expected distinguished, not seen; run: sp2forms tensor-bilinear 2_1 2_1",
            "2_1 x 6_1: expected distinguished, not seen; run: sp2forms tensor-bilinear 2_1 6_1",
        ]
        assert not_seen(verify_prop_C(6)) == [
            "wedge 4_1: expected distinguished, not seen; run: sp2forms thmC 4_1",
            "irr 4_1: expected distinguished, not seen; run: sp2forms thmC 4_1",
            "irr 2_1^2: expected distinguished, not seen; run: sp2forms thmC 2_1^2",
            "irr 6_1: expected distinguished, not seen; run: sp2forms thmC 6_1",
            "irr 10_1: expected distinguished, not seen; run: sp2forms thmC 10_1",
            "irr 2_1,10_1: expected distinguished, not seen; run: sp2forms thmC 2_1,10_1",
        ]
        # the evaluated ones are also reported as mismatches, with the same command
        assert "2: distinguished=False, expected=True; run: sp2forms thmA 2" in verify_prop_A_tensor(6).counterexamples
        assert "wedge 4_1: distinguished=False; run: sp2forms thmC 4_1" in verify_prop_C(2).counterexamples

    def test_odd_single_tagged_sums(self):
        # the expected family of the pair sweep: the search kept while its newest, smallest size is 2 mod 4
        family = {
            s
            for dim in range(2, 31, 2)
            for s in symplectic_types(dim)
            if all(e == 1 and m == 1 and (d // 2) % 2 == 1 for d, m, e in s.entries)
        }
        sums = _distinct_v_sums(30, lambda s: s.entries[0][0] % 4 == 2)
        assert len(sums) == len(family) and set(sums) == family

    def test_distinct_v_sums_in_table_order(self):
        # with nothing dropped: every sum of distinct V(2h), each dimension in table order
        sums = _distinct_v_sums(31, lambda s: True)
        for dim in range(2, 31, 2):
            want = [s for s in symplectic_types(dim) if all(e == 1 and m == 1 for _, m, e in s.entries)]
            assert [s for s in sums if s.dimension() == dim] == want
        assert all(s.dimension() <= 31 for s in sums)
        assert _distinct_v_sums(1, lambda s: True) == []


# --- the pruned sweeps against exhaustive per-class references ---------------


def _reference_dual(name, max_n, part, expected):
    """Every Jordan type of dimension 2..max_n through dual_tensor_classes."""
    report = distinguished.SweepReport(name=name)
    seen = set()
    for n in range(2, max_n + 1):
        for j in jordan_types(n):
            report.checked += 1
            got = is_distinguished(getattr(dual_tensor_classes(j), part))
            if got:
                seen.add(j)
                report.hits.append(str(j))
            if got != (j in expected):
                report.counterexamples.append(f"{j}: distinguished={got}, expected={j in expected}{repro('thmA', j)}")
    report.counterexamples += [
        f"{j}: expected distinguished, not seen{repro('thmA', j)}" for j in expected if j not in seen
    ]
    return report


def _reference_tensor(max_dim):
    """Every unordered pair of classes through tensor_bilinear."""
    report = distinguished.SweepReport(name="bilinear-tensor-distinguished")
    v2 = vtype(2)
    by_dim = {dim: list(symplectic_types(dim)) for dim in range(2, max_dim // 2 + 1, 2)}
    seen = set()

    def odd_sum(s):
        return all(e == 1 and m == 1 and (d // 2) % 2 == 1 for d, m, e in s.entries)

    for dim1 in sorted(by_dim):
        for dim2 in sorted(by_dim):
            if dim2 < dim1 or dim1 * dim2 > max_dim:
                continue
            for s1 in by_dim[dim1]:
                for s2 in by_dim[dim2]:
                    report.checked += 1
                    got = is_distinguished(tensor_bilinear(s1, s2))
                    want = (s1 == v2 and odd_sum(s2)) or (s2 == v2 and odd_sum(s1))
                    if got:
                        seen.add((s1, s2))
                        report.hits.append(f"{s1} x {s2}")
                    if got != want:
                        report.counterexamples.append(
                            f"{s1} x {s2}: distinguished={got}, expected={want}{repro('tensor-bilinear', s1, s2)}"
                        )
    report.counterexamples += [
        f"{v2} x {s}: expected distinguished, not seen{repro('tensor-bilinear', v2, s)}"
        for dim in sorted(by_dim)
        for s in by_dim[dim]
        if odd_sum(s) and (v2, s) not in seen
    ]
    return report


def _reference_C(max_n):
    """Every symplectic class of dimension 4..2*max_n through wedge_square_classes."""
    report = distinguished.SweepReport(name="wedge-distinguished")
    for n in range(2, max_n + 1):
        expected_wedge = [vtype(4)] if n == 2 else []
        expected_irr = [vtype(2 * n)] if n in (2, 3, 5) else []
        if n in (2, 6):
            expected_irr.append(orthogonal_sum(vtype(2), vtype(2 * n - 2)))
        seen = set()
        for p in symplectic_partitions(2 * n):
            for s in epsilon_variants(p):
                report.checked += 1
                out = wedge_square_classes(s)
                for kind, image, expected in (("wedge", out.wedge_space, expected_wedge),
                                              ("irr", out.irreducible, expected_irr)):
                    got = is_distinguished(image)
                    if got:
                        seen.add((kind, s))
                        report.hits.append(f"{kind} {s}")
                    if got != (s in expected):
                        report.counterexamples.append(f"{kind} {s}: distinguished={got}{repro('thmC', s)}")
        for kind, expected in (("wedge", expected_wedge), ("irr", expected_irr)):
            report.counterexamples += [
                f"{kind} {s}: expected distinguished, not seen{repro('thmC', s)}"
                for s in expected
                if (kind, s) not in seen
            ]
    return report


def _same_report(fast, slow):
    assert fast.hits == slow.hits
    assert fast.counterexamples == slow.counterexamples
    assert fast.checked == slow.checked
    assert fast.evaluated <= fast.checked


class TestAgainstExhaustive:
    @pytest.mark.parametrize("max_n", [1, 2, 3, 5, 8, 14])
    def test_dual_sweeps(self, max_n):
        single2 = [JordanType(((2, 1),))] if max_n >= 2 else []
        small = [JordanType(((n, 1),)) for n in (2, 3, 5) if n <= max_n]
        references = (_reference_dual("dual-tensor-distinguished", max_n, "tensor_space", single2),
                      _reference_dual("dual-irreducible-distinguished", max_n, "irreducible", small))
        _same_report(verify_prop_A_tensor(max_n), references[0])
        _same_report(verify_prop_A_irr(max_n), references[1])
        for fast, slow in zip(verify_prop_A(max_n), references, strict=True):  # the one pass, in this order
            assert fast.name == slow.name
            _same_report(fast, slow)

    @pytest.mark.parametrize("max_dim", [-5, 0, 3, 4, 12, 20, 28, 36, 44, 60])
    def test_pair_sweep(self, max_dim):
        _same_report(verify_prop_tensor(max_dim), _reference_tensor(max_dim))

    @pytest.mark.parametrize("max_n", [2, 3, 6, 10, 12])
    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_wedge_sweep(self, max_n, exhaustive, monkeypatch):
        # exhaustive: the search's rule and the part bound it proves (Lemma W) switched off,
        # so every class in range is evaluated
        if exhaustive:
            monkeypatch.setattr(distinguished, "_within_subquotient_reach", lambda square: True)
            monkeypatch.setattr(distinguished, "WEDGE_SQUARE_PARTS", 2 * max_n)
        report = verify_prop_C(max_n)
        _same_report(report, _reference_C(max_n))
        assert (report.evaluated == report.checked) is exhaustive


class TestSearch:
    def test_pruned_counts_match_generators(self):
        # class_counts(dim)[r] is the number of classes of dimension r that the generators yield
        plain, tagged = class_counts(30), class_counts(30, True)
        assert len(plain) == len(tagged) == 31
        for r in range(31):
            assert plain[r] == len(list(partitions(r)))
            assert tagged[r] == len(list(symplectic_types(r)))
        assert class_counts(-3) == class_counts(0) == [1]
        assert class_counts(1) == [1, 1] and class_counts(1, True) == [1, 0]

    @staticmethod
    def _prefixes(j):
        """The sub-types met on the way to j in search order: blocks added one at a time, largest first."""
        blocks = [d for d in reversed(j.expand())]
        for k in range(1, len(blocks)):
            yield JordanType.from_dict({d: blocks[:k].count(d) for d in set(blocks[:k])})

    def test_prefix_rule_is_monotone(self):
        # a prefix whose square fails a rule has no completion that passes it
        for n in range(1, 13):
            for j in jordan_types(n):
                squares = (tensor(j, j), wedge_square(j))
                for prefix in self._prefixes(j):
                    partial = (tensor(prefix, prefix), wedge_square(prefix))
                    for part, full in zip(partial, squares):
                        if not _within_subquotient_reach(dict(part.blocks)):
                            assert not _within_subquotient_reach(dict(full.blocks)), (prefix, j)

    def test_leaf_squares_match_the_engine(self, monkeypatch):
        # with nothing pruned, one search yields every partition of each dimension in table order with its square
        monkeypatch.setattr(distinguished, "_within_subquotient_reach", lambda square: True)
        plain = _search(12, grow_tensor_square)
        wedge = _search(12, grow_wedge_square, symplectic=True)
        products = [
            (j1, _search(12, lambda sq, _, d, m: grow_product(sq, j1.blocks, d, m), symplectic=True))
            for j1 in jordan_types(4)
        ]
        assert len(plain) == len(wedge) == 13
        for n in range(13):
            assert [p for p, _ in plain[n]] == list(partitions(n))
            assert all(sq == dict(tensor(JordanType(p), JordanType(p)).blocks) for p, sq in plain[n])

            assert [p for p, _ in wedge[n]] == list(symplectic_partitions(n))
            assert all(sq == dict(wedge_square(JordanType(p)).blocks) for p, sq in wedge[n])

            for j1, leaves in products:
                assert [p for p, _ in leaves[n]] == list(symplectic_partitions(n))
                assert all(sq == dict(tensor(j1, JordanType(p)).blocks) for p, sq in leaves[n])

    @staticmethod
    def _passing(max_dim, generate, square):
        """Exhaustive reference: for each dimension 0..max_dim, the partitions whose square passes, in table order."""
        return [
            [(p, sq) for p in generate(n) for sq in [dict(square(JordanType(p)).blocks)] if _within_subquotient_reach(sq)]
            for n in range(max(max_dim, 0) + 1)
        ]

    @pytest.mark.parametrize("max_dim", [-4, 0, 1, 2, 7, 30])
    def test_tensor_search_against_exhaustive(self, max_dim):
        # one search to max_dim keeps, in every dimension, exactly the partitions whose own square passes
        want = self._passing(max_dim, partitions, lambda j: tensor(j, j))
        assert _search(max_dim, grow_tensor_square) == want

    @pytest.mark.parametrize("max_dim", [-4, 0, 1, 4, 9, 40])
    def test_wedge_search_against_exhaustive(self, max_dim):
        want = self._passing(max_dim, symplectic_partitions, wedge_square)
        assert _search(max_dim, grow_wedge_square, symplectic=True) == want

    def test_single_block_squares_bound_the_parts(self):
        # the base cases of Lemmas T and W, and past them: a single block's square passes the rule
        # only up to the search's largest parts, for every size the wedge search reaches at the cap
        top = 4096
        assert 2 * cli.MAX_N_CAP <= top
        tensors = [d for d in range(1, top + 1) if _within_subquotient_reach(dict(_tensor_blocks(d, d)))]
        wedges = [d for d in range(1, top + 1) if _within_subquotient_reach(dict(_wedge_block(d)))]
        assert tensors == [1, 2, 3, 4, 5, 6]
        assert wedges == [1, 2, 4, 6, 8, 10, 12]
        assert (distinguished.TENSOR_SQUARE_PARTS, distinguished.WEDGE_SQUARE_PARTS) == (tensors[-1], wedges[-1])

    def test_repeated_blocks_fail(self):
        # the multiplicity bounds in _search: two blocks of one size fail the tensor rule, three the wedge rule
        for d in range(1, 4097):
            tensor_sq, wedge_sq = {}, {}
            grow_tensor_square(tensor_sq, [], d, 2)
            grow_wedge_square(wedge_sq, [], d, 3)
            assert not _within_subquotient_reach(tensor_sq), d
            assert not _within_subquotient_reach(wedge_sq), d

    def test_searches_end_within_the_multiplicity_bounds(self):
        # distinct parts <= 6 make at most 21, parts <= 12 twice at most 156; the survivors stop at 7 and 14
        tensors = _search(21, grow_tensor_square, False, 6)
        wedges = _search(156, grow_wedge_square, True, 12)
        assert not any(tensors[8:]) and not any(wedges[15:])
        assert _search(1000, grow_tensor_square, False, 6) == tensors + [[]] * (1000 - 21)
        assert _search(2000, grow_wedge_square, True, 12) == wedges + [[]] * (2000 - 156)
        types = [p for leaves in tensors[2:] for p, _ in leaves]
        partitions = [p for leaves in wedges[4:] for p, _ in leaves]
        assert len(types) == 8
        assert len(partitions) == 12 and sum(len(list(epsilon_variants(p))) for p in partitions) == 13

    @pytest.mark.parametrize("max_dim", [-4, 0, 1, 7, 30, 60])
    def test_tensor_search_from_its_largest_part(self, max_dim):
        assert _search(max_dim, grow_tensor_square, False, 6) == _search(max_dim, grow_tensor_square)

    @pytest.mark.parametrize("max_dim", [-4, 0, 4, 14, 40, 120])
    def test_wedge_search_from_its_largest_part(self, max_dim):
        assert _search(max_dim, grow_wedge_square, True, 12) == _search(max_dim, grow_wedge_square, True)

    def test_part_bounds_are_tight(self):
        # one less and the single blocks (6) and (12), which survive, are lost
        full = _search(30, grow_tensor_square)
        assert ((6, 1),) in [p for p, _ in full[6]]
        assert _search(30, grow_tensor_square, False, 5) != full
        full = _search(40, grow_wedge_square, True)
        assert ((12, 1),) in [p for p, _ in full[12]]
        assert _search(40, grow_wedge_square, True, 11) != full

    def test_product_class_has_the_product_jordan_type(self):
        # forgetting the tags of tensor_bilinear gives the Jordan-level product tensor(j1, j2)
        for dim1 in (2, 4, 6):
            for dim2 in (2, 4, 6, 8):
                for s1 in symplectic_types(dim1):
                    for s2 in symplectic_types(dim2):
                        assert tensor_bilinear(s1, s2).jordan() == tensor(s1.jordan(), s2.jordan())

    def test_pair_pieces_have_even_multiplicity(self):
        # the pair sweep's lemma rests on this: every piece of a product of two indecomposables
        # has even multiplicity at least 2, and only V x V pieces carry tag 1
        kinds = [("V", d) for d in range(2, 33, 2)] + [("W", d) for d in range(1, 33)]
        piece = {"V": vtype, "W": wtype}  # one copy of V(d) or of W(d)
        for kind1, d1 in kinds:
            for kind2, d2 in kinds:
                if d1 * d2 > 64:
                    continue
                pieces = tensor_bilinear(piece[kind1](d1), piece[kind2](d2)).entries
                dims = (d1 * (1 + (kind1 == "W")), d2 * (1 + (kind2 == "W")))
                assert sum(a * m for a, m, _ in pieces) == dims[0] * dims[1]
                for a, m, e in pieces:
                    assert m >= 2 and m % 2 == 0, (kind1, d1, kind2, d2, a, m)
                    assert e == 0 or kind1 == kind2 == "V", (kind1, d1, kind2, d2, a)

    def test_distinguished_pieces(self):
        # the piece table: V(2h) x V(2k) is distinguished exactly when h = 1 and k is odd
        for h in range(1, 301):
            for k in range(h, 301):
                want = h == 1 and k % 2 == 1
                assert is_distinguished(tensor_bilinear(vtype(2 * h), vtype(2 * k))) == want, (h, k)
