import dataclasses
import json
import math

import numpy as np
import pytest

import dslgen
import oracles
from cvqsim import dsl, fock as fk, gaussian as g, squeezing_db_to_r

R15 = squeezing_db_to_r(15.0)


def parse_ok(text):
    p = dsl.parse(text)
    assert isinstance(p, dsl.CircuitProgram), p
    return p


def parse_err(text):
    p = dsl.parse(text)
    assert isinstance(p, dsl.ParseError), p
    return p


class TestParse:

    def test_two_instruction_program(self):
        p = parse_ok("mode q0; sq q0 15dB x;")
        assert len(p.instructions) == 2
        assert p.modes == ("q0",)
        op, args = p.instructions[1].op, p.instructions[1].args
        assert op == "sq"
        assert args[0] == "q0" and args[2] == "x"
        assert args[1] == pytest.approx(R15, abs=1e-15)

    def test_r_suffix_taken_literally(self):
        p = parse_ok("mode q0; sq q0 1.15r p;")
        assert p.instructions[1].args[1] == 1.15

    def test_consumed_mode_rejected_with_position(self):
        e = parse_err("mode q0;\nhom q0 theta=0 -> m0; ps q0 1;")
        assert e.message == "mode q0 consumed"
        assert e.token == "q0"
        assert (e.line, e.column) == (2, 26)

    def test_consumed_applies_to_every_op(self):
        for stmt in ("sq q0 1r x;", "bs q0 q1 t=0.5;", "disp q0 dx=1 dp=0;",
                     "loss q0 0.9;", "hom q0 theta=0 -> m1;",
                     "ff m0 q0 gx=1 gp=0;", "cubic q0 gamma=0.1;"):
            e = parse_err("mode q0 q1; hom q0 theta=0 -> m0; " + stmt)
            assert e.message == "mode q0 consumed", stmt

    def test_undeclared_mode(self):
        e = parse_err("mode q0; ps q1 0.5;")
        assert e.message == "undeclared mode q1"
        assert (e.line, e.column) == (1, 13)

    def test_undeclared_outcome(self):
        e = parse_err("mode q0; ff m9 q0 gx=1 gp=0;")
        assert e.message == "undeclared outcome m9"

    def test_redeclarations(self):
        assert "already declared" in parse_err("mode q0; mode q0;").message
        e = parse_err("mode a b; hom a theta=0 -> m0; hom b theta=0 -> m0;")
        assert e.message == "outcome m0 already declared"

    def test_unknown_op(self):
        e = parse_err("mode q0; twist q0;")
        assert e.message == "unknown op 'twist'"
        assert e.token == "twist"

    def test_network_block_is_a_parse_error(self):
        # streaming has no block: it is `cvq stream`'s alone
        e = parse_err("# stream\nnetwork { dim 1; pulses 10; }")
        assert e.message == "unknown op 'network'"
        assert e.token == "network"
        assert (e.line, e.column) == (2, 1)

    def test_arity_and_type_errors(self):
        assert "expected" in parse_err("mode q0; ps q0;").message
        assert "expected" in parse_err("mode q0 q1; bs q0 q1;").message
        assert "needs a dB or r suffix" in parse_err(
            "mode q0; sq q0 1.5 x;").message
        assert "expected x or p" in parse_err("mode q0; sq q0 1r z;").message
        assert "unexpected suffix" in parse_err("mode q0; ps q0 1dB;").message
        assert "expected t=" in parse_err(
            "mode a b; bs a b u=0.5;").message

    def test_distinct_mode_ops(self):
        assert "distinct" in parse_err("mode q0; bs q0 q0 t=0.5;").message
        assert "distinct" in parse_err("mode q0; cphase q0 q0;").message

    def test_lexer_errors_are_positioned(self):
        e = parse_err("mode q0;\nps q0 0.5$;")
        assert "unexpected character" in e.message
        assert (e.line, e.column) == (2, 10)
        assert parse_err("sq q0 15dBm x;").message == "unknown number suffix 'dBm'"
        assert parse_err("ps q0 1e999;").message == "number out of range"

    def test_unterminated_constructs(self):
        assert "expected '}'" in parse_err("schedule { data 1;").message
        assert "expected ';'" in parse_err("mode q0").message
        assert "expected" in parse_err("report form c=[1.0, ;").message

    def test_comments_layout_and_stray_semicolons(self):
        p = parse_ok("# header\nmode q0;;; sq q0 1r x;  # tail\n\n;")
        assert len(p.instructions) == 2

    def test_empty_input(self):
        p = parse_ok("")
        assert p.instructions == () and p.modes == ()

    def test_blocks_parse(self):
        p = parse_ok("schedule { data 2; anc 3; squeeze 10dB; }")
        entries = dict((e[0], e[1]) for e in p.instructions[0].args)
        assert entries["data"] == 2 and entries["anc"] == 3
        assert entries["squeeze"] == pytest.approx(
            squeezing_db_to_r(10.0), abs=1e-15)
        p = parse_ok("schedule { data 3; anc 1; bs 0 2 t=0.5; sqz 1 0.7; }")
        assert ("bs", 0, 2, 0.5) in p.instructions[0].args

    def test_block_entry_errors(self):
        assert "duplicate schedule entry" in parse_err(
            "schedule { data 1; data 2; }").message
        assert "unknown schedule entry" in parse_err(
            "schedule { data 1; dim 2; }").message
        assert "expected data value" in parse_err(
            "schedule { data 1.5; }").message

    def test_error_str_carries_position(self):
        e = parse_err("mode q0; ps q1 0.5;")
        assert str(e) == "1:13: undeclared mode q1"

    def test_parse_rejects_non_text(self):
        assert isinstance(dsl.parse(b"mode q0;"), dsl.ParseError)

    def test_parse_error_is_a_value_error_returned_not_raised(self):
        e = parse_err("mode q0;\nsq q0 3 x;")
        assert isinstance(e, ValueError)
        assert (e.line, e.column, e.token) == (2, 7, "3")
        assert e.message == "squeeze value needs a dB or r suffix"
        assert e.__traceback__ is None      # it holds no parser frames
        with pytest.raises(dsl.ParseError) as info:
            raise e
        assert info.value is e and str(e) == "2:7: " + e.message


class TestRoundTrip:

    def test_round_trip_200_random_programs(self):
        rng = np.random.default_rng(20260822)
        for _ in range(200):
            text = dslgen.random_program_text(rng)
            p1 = dsl.parse(text)
            assert isinstance(p1, dsl.CircuitProgram), f"{p1}\n{text}"
            printed = dsl.pretty_print(p1)
            p2 = dsl.parse(printed)
            assert p2 == p1, text

    def test_pretty_print_is_a_fixed_point(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = dsl.parse(dslgen.random_program_text(rng))
            printed = dsl.pretty_print(p)
            assert dsl.pretty_print(dsl.parse(printed)) == printed


# One canonical program per op-table entry and report kind, named
# "<op>[-<kind>]", each statement on its own line as pretty_print lays
# it out; the entry under test comes last.
TABLE_CASES = [
    ("mode", ["mode a b;"]),
    ("sq", ["mode a;", "sq a 0.5r p;"]),
    ("ps", ["mode a;", "ps a 0.25;"]),
    ("bs", ["mode a b;", "bs a b t=0.5;"]),
    ("disp", ["mode a;", "disp a dx=0.5 dp=-0.25;"]),
    ("loss", ["mode a;", "loss a 0.75;"]),
    ("hom", ["mode a b;", "hom a theta=0.5 -> m0;"]),
    ("ff", ["mode a b;", "hom a theta=0.5 -> m0;",
            "ff m0 b gx=0.5 gp=-0.25;"]),
    ("cubic", ["mode a;", "cubic a gamma=0.125;"]),
    ("cphase", ["mode a b;", "cphase a b;"]),
    ("report-cov", ["mode a;", "report cov;"]),
    ("report-form", ["mode a;", "report form c=[1.0, -0.5];"]),
    ("report-fidelity-vacuum", ["mode a;", "report fidelity vacuum;"]),
    ("report-fidelity-coherent", [
        "mode a;", "disp a dx=0.5 dp=-0.25;",
        "report fidelity coherent dx=0.5 dp=-0.25;"]),
    ("schedule", ["schedule {", "  data 2;", "  anc 1;", "  squeeze 0.5r;",
                  "  ps 0 0.25;", "  bs 0 1 t=0.5;", "  sqz 1 0.75;",
                  "  disp 0 dx=0.5 dp=-0.25;", "}"]),
]

UNSUPPORTED = {
    ("loss", "fock"): "loss channel not supported on fock backend",
    ("cubic", "gaussian"): "non-Gaussian op on Gaussian backend",
    ("cphase", "gaussian"): "non-Gaussian op on Gaussian backend",
    ("schedule", "fock"): "schedule not supported on fock backend; "
                          "run it with cvq loop",
}


class TestOpTable:

    def test_cases_cover_every_entry(self):
        assert {case.split("-")[0] for case, _ in TABLE_CASES} == set(dsl._OPS)
        reports = [parse_ok("\n".join(lines)).instructions[-1].args
                   for case, lines in TABLE_CASES
                   if case.startswith("report")]
        assert [a[:2] if a[0] == "fidelity" else a[0] for a in reports] == [
            "cov", "form", ("fidelity", "vacuum"), ("fidelity", "coherent")]
        for case, lines in TABLE_CASES:
            entries = dsl._OPS[case.split("-")[0]].entries
            if entries is not None:
                written = {line.split()[0] for line in lines[1:-1]}
                assert written == set(entries), case
        missing = {(op, b) for op, entry in dsl._OPS.items()
                   for b in ("gaussian", "fock") if getattr(entry, b) is None}
        assert missing == set(UNSUPPORTED)

    @pytest.mark.parametrize("case, lines", TABLE_CASES,
                             ids=[case for case, _ in TABLE_CASES])
    def test_entry_round_trips_and_runs_where_listed(self, case, lines):
        op = case.split("-")[0]
        text = "\n".join(lines) + "\n"
        p = parse_ok(text)
        assert dsl.pretty_print(p) == text
        again = dsl.parse(dsl.pretty_print(p))
        assert again == p
        # Instruction equality ignores positions, so compare them as well
        starts = [(k + 1, 1) for k, line in enumerate(lines)
                  if not line.startswith((" ", "}"))]
        assert [(i.line, i.column) for i in p.instructions] == starts
        assert [(i.line, i.column) for i in again.instructions] == starts
        last = p.instructions[-1]
        for backend in ("gaussian", "fock"):
            errors = dsl.validate(p, backend)
            if (op, backend) in UNSUPPORTED:
                assert errors == [dsl.ValidationError(
                    last.line, last.column, UNSUPPORTED[op, backend])]
            else:
                assert errors == []
                # sq a 0.5r p leaks 1.4e-4 at cutoff 12
                dsl.run(p, backend, 0, cutoff=16 if op == "sq" else 12)


class TestFuzz:

    def test_parser_total_on_hostile_input(self):
        rng = np.random.default_rng(99)
        for _ in range(20000):
            text = dslgen.fuzz_case(rng)
            result = dsl.parse(text)     # must not raise
            if isinstance(result, dsl.ParseError):
                assert result.line >= 1 and result.column >= 1
                n_lines = text.count("\n") + 1
                assert result.line <= n_lines


class TestValidate:

    def test_non_gaussian_op_on_gaussian_backend(self):
        for text in ("mode q0; cubic q0 gamma=0.1;",
                     "mode a b; cphase a b;"):
            errors = dsl.validate(parse_ok(text), "gaussian")
            assert len(errors) == 1
            assert errors[0].message == "non-Gaussian op on Gaussian backend"
        assert dsl.validate(parse_ok("mode q0; cubic q0 gamma=0.1;"),
                            "fock") == []

    def test_loss_not_on_fock(self):
        errors = dsl.validate(parse_ok("mode q0; loss q0 0.9;"), "fock")
        assert any("loss" in e.message for e in errors)

    def test_fock_mode_cap(self):
        p = parse_ok("mode a b c d;")
        assert dsl.validate(p, "gaussian") == []
        errors = dsl.validate(p, "fock")
        assert any("limited to 3 modes" in e.message for e in errors)

    def test_range_checks(self):
        assert any("transmissivity" in e.message for e in dsl.validate(
            parse_ok("mode a b; bs a b t=1.5;"), "gaussian"))
        assert any("transmission" in e.message for e in dsl.validate(
            parse_ok("mode a; loss a 1.2;"), "gaussian"))

    def test_schedule_block_checks(self):
        assert any("slot 5 out of range" in e.message for e in dsl.validate(
            parse_ok("schedule { data 2; ps 5 0.1; }"), "gaussian"))
        assert any("anc >= 1" in e.message for e in dsl.validate(
            parse_ok("schedule { data 2; sqz 0 0.7; }"), "gaussian"))

    def test_block_must_stand_alone(self):
        p = parse_ok("mode q0; schedule { data 1; ps 0 0.1; }")
        assert any("whole program" in e.message
                   for e in dsl.validate(p, "gaussian"))

    @pytest.mark.parametrize("backend", ["gaussian", "fock"])
    def test_statement_without_modes_rejected(self, backend):
        p = parse_ok("\n  report cov;")
        errors = dsl.validate(p, backend)
        assert [(e.line, e.column, e.message) for e in errors] == [
            (2, 3, "no mode declared")]
        with pytest.raises(ValueError, match="no mode declared"):
            dsl.run(p, backend, 0)

    def test_unknown_backend(self):
        assert "unknown backend" in dsl.validate(parse_ok(""), "qubit")[0].message

    def test_run_refuses_invalid_program(self):
        p = parse_ok("mode q0; cubic q0 gamma=0.1;")
        with pytest.raises(ValueError, match="non-Gaussian op"):
            dsl.run(p, "gaussian", 0)


class TestRun:

    def test_empty_program_empty_report(self):
        rep = dsl.run(parse_ok(""), "gaussian", 0)
        assert rep.outcomes == [] and rep.reports == []

    def test_gaussian_runner_matches_dense_oracle(self):
        rng = np.random.default_rng(5100)
        checked = 0
        while checked < 20:
            p = parse_ok(dslgen.gates_text(rng, n_ops=14,
                                           allow_nongaussian=False,
                                           n_modes=int(rng.integers(2, 5))))
            if not any(ins.op == "ff" for ins in p.instructions):
                continue
            rep = dsl.run(p, "gaussian", checked)
            outcomes, reports = oracles.dsl_gaussian_dense(p, checked)
            assert [o["id"] for o in rep.outcomes] == [o["id"] for o in outcomes]
            np.testing.assert_allclose([o["value"] for o in rep.outcomes],
                                       [o["value"] for o in outcomes],
                                       rtol=1e-9, atol=1e-9)
            got = [r for r in rep.reports if r["type"] != "fidelity"]
            assert [r["type"] for r in got] == [r["type"] for r in reports]
            for mine, ref in zip(got, reports):
                for key in ("mean", "cov", "variance"):
                    if key in ref:
                        np.testing.assert_allclose(mine[key], ref[key],
                                                   rtol=1e-9, atol=1e-9)
            checked += 1

    def test_in_place_runner_equals_pure_wrappers(self, monkeypatch):
        # the runner rewrites its own state per gate; the pure single-gate
        # API, a copy per gate, must give the same bytes
        rng = np.random.default_rng(5300)
        programs = [parse_ok(dslgen.gates_text(
            rng, n_ops=16, allow_nongaussian=False,
            n_modes=int(rng.integers(2, 6))) + "report cov;\n")
            for _ in range(40)]
        ops = {ins.op for p in programs for ins in p.instructions}
        assert {"sq", "ps", "bs", "loss", "disp", "hom", "ff"} <= ops
        in_place = [dsl.run(p, "gaussian", seed).to_dict()
                    for seed, p in enumerate(programs)]

        def ff(r, a):
            k, theta, _ = r.measured[a[0]]
            return g.apply_local(r.state, (k, r[a[1]]), g.feedforward_matrix(
                2, 1, 0, theta, a[2], a[3]))

        pure = {"sq": lambda r, a: g.squeeze(r.state, r[a[0]],
                                             dsl._signed(a)),
                "ps": lambda r, a: g.phase_shift(r.state, r[a[0]], a[1]),
                "bs": lambda r, a: g.beam_splitter(r.state, r[a[0]],
                                                   r[a[1]], a[2]),
                "loss": lambda r, a: g.loss(r.state, r[a[0]], a[1]),
                "ff": ff}
        for name, action in pure.items():
            monkeypatch.setitem(dsl._OPS, name, dataclasses.replace(
                dsl._OPS[name], gaussian=action))
        for seed, (p, want) in enumerate(zip(programs, in_place)):
            got = dsl.run(p, "gaussian", seed).to_dict()
            got.pop("timings"), want.pop("timings")
            assert got == want      # exact: the same arithmetic, in order

    def test_report_is_unchanged_by_later_gates(self):
        p = parse_ok("mode a b; sq a 1r x; sq b 1r p; report cov;"
                     " bs a b t=0.5; loss a 0.5; ps b 0.3;"
                     " hom a theta=0 -> m; ff m b gx=1.0 gp=0.5;"
                     " disp b dx=1.0 dp=0.0; sq b 0.4r x; report cov;")
        first, last = dsl.run(p, "gaussian", 0).reports
        squeezed = g.squeeze(g.squeeze(g.vacuum(2), 0, 1.0), 1, -1.0)
        assert first["mean"] == squeezed.mean.tolist()
        assert first["cov"] == squeezed.cov.tolist()
        assert last["modes"] == ["b"] and last["cov"] != first["cov"][2:]

    def test_epr_outcomes_follow_joint_distribution(self):
        # x of both arms of an EPR pair: the second reading must be drawn
        # given the first (the Fock backend collapses, so it already was)
        r = squeezing_db_to_r(4.0)
        p = parse_ok("mode a b; sq a 4dB x; sq b 4dB p; bs a b t=0.5;"
                     " hom a theta=0 -> m0; hom b theta=0 -> m1;")
        values = [[o["value"] for o in dsl.run(p, "gaussian", seed).outcomes]
                  for seed in range(1000)]
        exact = 0.5 * np.array([[math.cosh(2 * r), math.sinh(2 * r)],
                                [math.sinh(2 * r), math.cosh(2 * r)]])
        assert np.abs(np.cov(np.array(values).T) - exact).max() < 0.1

    def test_epr_form_variance(self):
        p = parse_ok(f"""
            mode a b;
            sq a {R15}r x; sq b {R15}r p;
            bs a b t=0.5;
            report form c=[1.0, 0.0, -1.0, 0.0];
            report form c=[0.0, 1.0, 0.0, 1.0];
        """)
        rep = dsl.run(p, "gaussian", 5)
        for entry in rep.reports:
            assert entry["variance"] == pytest.approx(math.exp(-2 * R15),
                                                      abs=1e-9)

    def test_report_kinds(self):
        p = parse_ok("mode q0; disp q0 dx=0.3 dp=-0.1; report cov;"
                     " report fidelity vacuum;"
                     " report fidelity coherent dx=0.3 dp=-0.1;")
        rep = dsl.run(p, "gaussian", 0)
        cov = np.array(rep.reports[0]["cov"])
        assert np.allclose(cov, 0.5 * np.eye(2), atol=1e-12)
        assert rep.reports[0]["mean"] == pytest.approx([0.3, -0.1])
        assert rep.reports[2]["value"] == pytest.approx(1.0, abs=1e-12)
        assert rep.reports[1]["value"] < 1.0

    def test_form_length_mismatch_is_runtime_error(self):
        p = parse_ok("mode a b; hom a theta=0 -> m0; report form c=[1.0, 0.0, 0.0, 0.0];")
        with pytest.raises(ValueError, match="form needs 2 coefficients"):
            dsl.run(p, "gaussian", 1)

    def test_teleport_program_matches_channel(self):
        text = dslgen.teleport_text("disp in dx=0.7 dp=-0.4;", R15)
        # unit gain adds exp(-2r) of variance per quadrature
        expected = (0.5 + math.exp(-2 * R15)) * np.eye(2)
        for seed in (0, 1, 17):
            rep = dsl.run(parse_ok(text), "gaussian", seed)
            cov = np.array(rep.reports[0]["cov"])
            assert np.max(np.abs(cov - expected)) < 1e-9
            assert rep.reports[0]["mean"] == pytest.approx([0.7, -0.4],
                                                           abs=1e-9)
            assert [o["id"] for o in rep.outcomes] == ["mx", "mp"]

    def test_determinism_per_seed(self):
        text = ("mode a b; sq a 8dB x; bs a b t=0.5;"
                " hom a theta=0.3 -> m0; ff m0 b gx=0.5 gp=0.0; report cov;")
        p = parse_ok(text)
        d1 = dsl.run(p, "gaussian", 42).to_dict()
        d2 = dsl.run(p, "gaussian", 42).to_dict()
        d1.pop("timings"), d2.pop("timings")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
        d3 = dsl.run(p, "gaussian", 43).to_dict()
        assert d3["outcomes"][0]["value"] != d1["outcomes"][0]["value"]

    @pytest.mark.parametrize("seed", range(8))
    def test_gaussian_program_agrees_across_backends(self, seed):
        rng = np.random.default_rng(3000 + seed)
        p = dsl.parse(dslgen.gaussian_pair_text(rng))
        assert isinstance(p, dsl.CircuitProgram)
        ga = dsl.run(p, "gaussian", 1).reports[-1]
        fo = dsl.run(p, "fock", 1, cutoff=80).reports[-1]
        assert np.max(np.abs(np.array(ga["cov"]) - np.array(fo["cov"]))) < 1e-4
        assert np.max(np.abs(np.array(ga["mean"]) - np.array(fo["mean"]))) < 1e-4

    def test_fock_reports_carry_leakage(self):
        p = parse_ok("mode a b; sq a 3dB x; disp b dx=0.4 dp=-0.2;"
                     " bs a b t=0.5; report cov; cubic a gamma=0.01;"
                     " report form c=[1,0,0,0]; report fidelity vacuum;")
        reports = dsl.run(p, "fock", 0, cutoff=40).reports
        assert len(reports) == 3
        for rep in reports:
            assert 0.0 <= rep["leakage"] < 1e-4

    def test_fock_leakage_is_computed_once_per_instruction(self,
                                                           monkeypatch):
        p = parse_ok("mode a; sq a 3dB x; report cov; report cov;")
        seen = []
        exact = fk.FockState.leakage
        monkeypatch.setattr(fk.FockState, "leakage",
                            lambda st: seen.append(exact(st)) or seen[-1])
        reports = dsl.run(p, "fock", 0, cutoff=20).reports
        assert len(seen) == len(p.instructions) == 4
        assert [rep["leakage"] for rep in reports] == seen[2:]

    def test_fock_fidelity_report_builds_no_moments(self, monkeypatch):
        p = parse_ok("mode a b; sq a 3dB x; bs a b t=0.5;"
                     " report fidelity vacuum; report cov;")
        calls = []
        exact = fk.covariance_of
        monkeypatch.setattr(fk, "covariance_of",
                            lambda st: calls.append(st) or exact(st))
        reports = dsl.run(p, "fock", 0, cutoff=20).reports
        assert [r["type"] for r in reports] == ["fidelity", "cov"]
        assert len(calls) == 1           # the cov report's alone

    def test_fock_coherent_fidelity_is_exact_far_from_the_state(self):
        # the target's cut amplitudes are exact: vacuum against |alpha>,
        # |alpha|^2 = 32, gives e^-32 at a cutoff far below 32 photons
        p = parse_ok("mode a; report fidelity coherent dx=8.0 dp=0.0;")
        value = dsl.run(p, "fock", 0, cutoff=20).reports[0]["value"]
        assert abs(value - math.exp(-32.0)) < 1e-12 * math.exp(-32.0)

    def test_fock_fidelity_report_refuses_a_non_finite_value(self,
                                                             monkeypatch):
        p = parse_ok("mode a; sq a 3dB x; report fidelity vacuum;")
        monkeypatch.setattr(fk, "fidelity_fock", lambda a, b: math.nan)
        with pytest.raises(ValueError, match="fidelity is not finite"):
            dsl.run(p, "fock", 0, cutoff=20)

    def test_fock_run_cubic_and_cphase(self):
        p = parse_ok("mode a b; cphase a b; cubic a gamma=0.05; report cov;")
        rep = dsl.run(p, "fock", 0, cutoff=30)
        assert rep.reports[0]["type"] == "cov"

    def test_fock_cutoff_defaults_to_fock_default(self, monkeypatch):
        cutoffs = []
        vacuum_fock = fk.vacuum_fock

        def spy(n, cutoff):
            cutoffs.append(cutoff)
            return vacuum_fock(n, cutoff)

        monkeypatch.setattr(fk, "vacuum_fock", spy)
        p = parse_ok("mode a; sq a 0.4r x; disp a dx=0.5 dp=0.0; report cov;")
        reps = [dsl.run(p, "fock", 3), dsl.run(p, "fock", 3, cutoff=None),
                dsl.run(p, "fock", 3, cutoff=fk.DEFAULT_CUTOFF)]
        assert cutoffs == [fk.DEFAULT_CUTOFF] * 3
        assert reps[0].reports == reps[1].reports == reps[2].reports

    def test_fock_leakage_over_budget_raises_at_the_instruction(self):
        p = parse_ok("mode q0; sq q0 15dB x; report cov;")
        with pytest.raises(fk.LeakageError, match="--cutoff") as err:
            dsl.run(p, "fock", 1)
        assert (err.value.line, err.value.column) == (1, 10)
        leakage = dsl.run(p, "fock", 1, cutoff=200).reports[0]["leakage"]
        assert leakage < fk.LEAKAGE_BUDGET

    @pytest.mark.parametrize("cutoff", [1, 2, 10, 14])
    def test_fock_leakage_is_seen_below_cutoff_20(self, cutoff):
        # the window holds levels of both parities: a squeezer's mass
        # piles up in the even ones, and cutoff <= 2 is all window
        p = parse_ok("mode a; sq a 10dB x; report cov;")
        with pytest.raises(fk.LeakageError):
            dsl.run(p, "fock", 1, cutoff=cutoff)

    def test_fock_backend_rejects_schedule(self):
        # the loop is Gaussian code, which no Fock cutoff holds
        p = parse_ok("\n  schedule { data 2; anc 1; ps 0 0.3; sqz 1 0.8; }")
        with pytest.raises(ValueError, match="run it with cvq loop") as exc:
            dsl.run(p, "fock", 0, cutoff=3)
        assert (exc.value.line, exc.value.column) == (2, 3)

    def test_schedule_program_matches_direct_gates(self):
        p = parse_ok("schedule { data 2; ps 0 0.4; bs 0 1 t=0.6; }")
        rep = dsl.run(p, "gaussian", 0)
        direct = g.vacuum(2)
        direct = g.phase_shift(direct, 0, 0.4)
        direct = g.beam_splitter(direct, 0, 1, 0.6)
        assert np.max(np.abs(np.array(rep.reports[0]["cov"])
                             - direct.cov)) < 1e-9
        assert rep.reports[0]["survivors"] == [0, 1]

    def test_every_valid_schedule_runs(self):
        # one-pulse loops included: whatever validate accepts, run runs
        rng = np.random.default_rng(4400)
        ran = 0
        for _ in range(300):
            p = parse_ok(dslgen.schedule_text(rng, min_data=1))
            if dsl.validate(p, "gaussian"):
                continue
            rep = dsl.run(p, "gaussian", 0)
            assert rep.reports[-1]["type"] == "loop"
            ran += 1
        assert ran >= 200

    def test_schedule_sqz_matches_tele_squeeze(self):
        r = squeezing_db_to_r(12.0)
        p = parse_ok(f"schedule {{ data 1; anc 1; squeeze {r}r; sqz 0 0.7; }}")
        rep = dsl.run(p, "gaussian", 4)
        expected = oracles.tele_squeeze(g.vacuum(1), 0.7, r).output
        assert np.max(np.abs(np.array(rep.reports[0]["cov"])
                             - expected.cov)) < 1e-9
        assert len(rep.outcomes) == 1

    def test_run_report_json_shape(self):
        p = parse_ok("mode q0; hom q0 theta=0 -> m0;")
        rep = dsl.run(p, "gaussian", 11)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert set(payload) == {"backend", "seed", "outcomes", "reports",
                                "timings"}
        assert payload["backend"] == "gaussian" and payload["seed"] == 11
        assert payload["outcomes"][0]["id"] == "m0"
