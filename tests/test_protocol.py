from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzcast.adversary import ALWAYS_COMPUTATIONAL, MEASURE_RESEND, EveStrategy, attack_tuple
from ghzcast.bitvec import BitVector, bit_vectors, concat_secrets, split, xor_all
from ghzcast.distribution import build_plan
from ghzcast.messages import MessageTable, Route
from ghzcast.protocol import (
    ALL_AGENTS,
    BROKER,
    STAGE_DECRYPTION,
    STAGE_DISTRIBUTION,
    STAGE_EMBEDDING,
    STAGE_EXCHANGE,
    STAGE_PREAMBLE,
    STAGE_RECOVERY,
    STAGE_VALIDATION,
    Scenario,
    ValidationReport,
    check_transcript_secrecy,
    execute_run,
    recover_secret,
    run_protocol,
    run_trials,
)
from ghzcast.statevec import prepare_ghz
from test_acceptance import ATTACK_SCENARIOS


class TestScenario:
    def test_d_defaults_to_payload_length(self, example_secrets):
        sc = Scenario(n=3, secrets=example_secrets)
        assert sc.resolved_d == 6
        assert Scenario(n=3, secrets=example_secrets, d=9).resolved_d == 9

    def test_validation(self, example_secrets):
        with pytest.raises(ValueError):
            Scenario(n=1, secrets=())
        with pytest.raises(ValueError):
            Scenario(n=3, secrets=example_secrets[:1])
        with pytest.raises(ValueError):
            Scenario(n=3, secrets=example_secrets, noise_p=1.5)
        with pytest.raises(ValueError):
            Scenario(n=3, secrets=example_secrets, threshold_fraction=0.0)
        with pytest.raises(ValueError, match="seed"):
            Scenario(n=3, secrets=example_secrets, seed=-1)
        with pytest.raises(ValueError):
            Scenario(n=2, secrets=(BitVector.from_text(""),))
        with pytest.raises(ValueError):
            # k exceeds the transmitted qubits per tuple
            Scenario(
                n=2,
                secrets=(BitVector.from_text("1"),),
                eve=EveStrategy(tag="intercept_replace", k=2),
            )


class TestHonestRun:
    def test_example_recovery(self, example_secrets):
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        assert not transcript.aborted
        assert transcript.recovered == example_secrets

    def test_stage_sequence(self, example_secrets):
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        assert transcript.stages == (
            STAGE_PREAMBLE,
            STAGE_DISTRIBUTION,
            STAGE_VALIDATION,
            STAGE_EMBEDDING,
            STAGE_DECRYPTION,
            STAGE_EXCHANGE,
            STAGE_RECOVERY,
        )

    def test_register_fold_equals_payload(self, example_secrets):
        sc = Scenario(n=3, secrets=example_secrets, seed=3)
        payload, _ = concat_secrets(example_secrets)
        for seed in range(30):
            transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=seed))
            registers = transcript.registers
            assert xor_all([registers.broker, *registers.agents]) == payload

    def test_validation_is_clean_without_noise(self, example_secrets):
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        assert transcript.validation.errors == 0
        assert transcript.validation.verdict == "pass"
        assert transcript.validation.decoy_checks == 12

    def test_no_decoys_passes_trivially(self, example_secrets):
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, d=0, seed=12))
        assert transcript.validation.decoy_checks == 0
        assert not transcript.aborted
        assert transcript.recovered == example_secrets

    def test_determinism(self, example_secrets):
        sc = Scenario(n=3, secrets=example_secrets, d=20, seed=77)
        a = run_protocol(sc)
        b = run_protocol(sc)
        assert a == b

    def test_seed_changes_stream(self, example_secrets):
        a = run_protocol(Scenario(n=3, secrets=example_secrets, seed=1))
        b = run_protocol(Scenario(n=3, secrets=example_secrets, seed=2))
        assert a.decoy_positions != b.decoy_positions or a.registers != b.registers

    @given(
        st.integers(2, 6),
        st.integers(0, 2**16),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_recovery_for_any_shape(self, n, seed, data):
        secrets = tuple(
            BitVector(data.draw(st.integers(0, (1 << m) - 1)), m)
            for m in data.draw(
                st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1)
            )
        )
        transcript = run_protocol(Scenario(n=n, secrets=secrets, d=4, seed=seed))
        assert not transcript.aborted
        assert transcript.recovered == secrets


class TestMessages:
    def test_exchange_message_count(self, example_secrets):
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        exchange = [r for r in transcript.messages.routes if r.stage == STAGE_EXCHANGE]
        n = 3
        assert len(exchange) == (n - 1) + (n - 1) * (n - 2)

    def test_broker_sends_each_agent_their_segment(self, example_secrets):
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        broker = transcript.registers.broker.bits()
        by_receiver = {
            r.receiver: tuple(bits.tolist())
            for r, bits in transcript.messages
            if r.stage == STAGE_EXCHANGE and r.sender == BROKER
        }
        assert by_receiver[0] == broker[:3]
        assert by_receiver[1] == broker[3:]

    def test_cross_agent_segments(self, example_secrets):
        # agent 1 receives segment 1 of agent 0's register and vice versa
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        agents = transcript.registers.agents
        cross = {
            (r.sender, r.receiver): tuple(bits.tolist())
            for r, bits in transcript.messages
            if r.stage == STAGE_EXCHANGE and r.sender != BROKER
        }
        assert cross[(0, 1)] == agents[0].bits()[3:]
        assert cross[(1, 0)] == agents[1].bits()[:3]

    def test_no_agent_to_broker_after_validation(self, example_secrets):
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        for r in transcript.messages.routes:
            if r.stage in (STAGE_EMBEDDING, STAGE_DECRYPTION, STAGE_EXCHANGE, STAGE_RECOVERY):
                assert r.receiver != BROKER

    def test_validation_reports_flow_to_broker(self, example_secrets):
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        # the broker's records, rebuilt from the run's protocol generator
        protocol_rng = np.random.default_rng(np.random.SeedSequence(12).spawn(2)[0])
        plan = build_plan(6, 6, 3, [protocol_rng], prepare_ghz(3))
        assert tuple(np.flatnonzero(plan.is_decoy).tolist()) == transcript.decoy_positions
        reports = [
            (r, bits)
            for r, bits in transcript.messages
            if r.stage == STAGE_VALIDATION and r.receiver == BROKER
        ]
        assert len(reports) == 2
        assert all(r.label == "decoy_outcomes" for r, _ in reports)
        assert [r.sender for r, _ in reports] == [0, 1]
        # agent i reports the column of its slot, decoy j as bit j
        for r, bits in reports:
            wrong = transcript.validation.wrong[:, r.sender]
            expected = plan.signs[:, r.sender]
            assert bits.tolist() == (expected ^ wrong).tolist()

    def test_pinned_run_sends_the_same_messages_in_the_same_order(self):
        # the preamble, the decoy positions, every agent's decoy outcomes,
        # then the broker's segments and every agent's, receiver by receiver
        secrets = tuple(BitVector.from_text(s) for s in ("10", "011", "1"))
        transcript = run_protocol(Scenario(n=4, secrets=secrets, d=3, noise_p=0.1, seed=21))
        def bits(text):
            return list(BitVector.from_text(text).bits())

        expected = [
            (Route(STAGE_PREAMBLE, BROKER, ALL_AGENTS, "segment_lengths"), [2, 3, 1]),
            (Route(STAGE_VALIDATION, BROKER, ALL_AGENTS, "decoy_positions"), [0, 5, 8]),
            (Route(STAGE_VALIDATION, 0, BROKER, "decoy_outcomes"), bits("101")),
            (Route(STAGE_VALIDATION, 1, BROKER, "decoy_outcomes"), bits("111")),
            (Route(STAGE_VALIDATION, 2, BROKER, "decoy_outcomes"), bits("000")),
            (Route(STAGE_EXCHANGE, BROKER, 0, "broker_segment", 0), bits("00")),
            (Route(STAGE_EXCHANGE, BROKER, 1, "broker_segment", 1), bits("100")),
            (Route(STAGE_EXCHANGE, BROKER, 2, "broker_segment", 2), bits("1")),
            (Route(STAGE_EXCHANGE, 0, 1, "register_segment", 1), bits("100")),
            (Route(STAGE_EXCHANGE, 0, 2, "register_segment", 2), bits("0")),
            (Route(STAGE_EXCHANGE, 1, 0, "register_segment", 0), bits("11")),
            (Route(STAGE_EXCHANGE, 1, 2, "register_segment", 2), bits("0")),
            (Route(STAGE_EXCHANGE, 2, 0, "register_segment", 0), bits("00")),
            (Route(STAGE_EXCHANGE, 2, 1, "register_segment", 1), bits("010")),
        ]
        assert not transcript.aborted
        assert [(r, entries.tolist()) for r, entries in transcript.messages] == expected

    def test_stacked_transcripts_are_read_only(self, example_secrets):
        # the runs of a stack share their payload ends and slice one register
        # array, so a write into one transcript must not reach another
        stack = next(run_trials(Scenario(n=3, secrets=example_secrets), [12, 13]))
        first, second = (outcome.transcript for outcome in stack)
        assert not first.aborted and not second.aborted
        def read(transcript):
            return [(r, bits.tolist()) for r, bits in transcript.messages], transcript.registers

        before = read(second)
        for array in (first.messages.ends, first.messages.payload, first.register_bits):
            with pytest.raises(ValueError, match="read-only"):
                array[0] ^= 1
        assert read(second) == before

    def test_broadcasts_carry_typed_payloads(self, example_secrets):
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        broadcasts = {
            r.label: tuple(entries.tolist())
            for r, entries in transcript.messages
            if r.receiver == ALL_AGENTS
        }
        assert broadcasts == {
            "segment_lengths": (3, 3),
            "decoy_positions": transcript.decoy_positions,
        }
        routes = transcript.messages.routes
        assert all(r.sender == BROKER for r in routes if r.receiver == ALL_AGENTS)


class TestAbort:
    def test_abort_precedes_embedding(self, example_secrets):
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL)
        transcript = run_protocol(
            Scenario(n=3, secrets=example_secrets, d=200, eve=eve, seed=4)
        )
        assert transcript.aborted
        assert transcript.stages == (STAGE_PREAMBLE, STAGE_DISTRIBUTION, STAGE_VALIDATION)
        assert STAGE_EMBEDDING not in transcript.stages
        assert transcript.registers is None
        assert transcript.recovered is None

    def test_aborted_run_has_no_exchange_traffic(self, example_secrets):
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL)
        transcript = run_protocol(
            Scenario(n=3, secrets=example_secrets, d=200, eve=eve, seed=4)
        )
        routes = transcript.messages.routes
        assert all(r.stage in (STAGE_PREAMBLE, STAGE_VALIDATION) for r in routes)

    def test_threshold_boundary(self, example_secrets):
        # 12 checks at fraction 1/8 aborts from 1.5, so from the 2nd error on
        sc = Scenario(n=3, secrets=example_secrets, seed=12)
        transcript = run_protocol(sc)
        assert transcript.validation.threshold == pytest.approx(1.5)

    def test_stack_totals_and_per_run_verdicts(self):
        # two runs of 4 decoys on 3 agent slots: run 1 has 6 errors, run 0 none
        wrong = np.zeros((2, 4, 3), dtype=bool)
        wrong[1, :2] = True
        report = ValidationReport(wrong, threshold=1.5)
        assert (report.decoy_checks, report.errors) == (24, 6)
        runs = [report.run(t) for t in range(2)]
        assert [(r.decoy_checks, r.errors, r.verdict) for r in runs] == [
            (12, 0, "pass"),
            (12, 6, "fail"),
        ]
        with pytest.raises(ValueError, match="run\\(t\\)"):
            report.failed
        # without decoys a run has nothing to fail
        empty = np.zeros((1, 0, 3), dtype=bool)
        assert ValidationReport(empty, threshold=0.0).run(0).verdict == "pass"

    def test_heavy_noise_aborts(self, example_secrets):
        aborted = 0
        for seed in range(40):
            transcript = run_protocol(
                Scenario(n=3, secrets=example_secrets, d=24, noise_p=0.5, seed=seed)
            )
            aborted += transcript.aborted
        assert aborted == 40

    def test_light_noise_mostly_passes(self, example_secrets):
        aborted = 0
        for seed in range(40):
            transcript = run_protocol(
                Scenario(n=3, secrets=example_secrets, d=24, noise_p=0.01, seed=seed)
            )
            aborted += transcript.aborted
        assert aborted < 10


class TestRecoverSecret:
    def test_all_zero_registers(self):
        zero = BitVector.zeros(4)
        assert recover_secret(np.zeros((3, 4), dtype=np.int64)) == zero

    def test_folds_every_held_segment(self, example_secrets):
        # segment i of the register fold is the fold of every party's segment i
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        registers, layout = transcript.registers, transcript.layout
        recovered = split(recover_secret(transcript.register_bits), layout)
        for i, secret in enumerate(example_secrets):
            held = [split(r, layout)[i] for r in (registers.broker, *registers.agents)]
            assert recovered[i] == xor_all(held) == secret

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_recovery_follows_the_routing(self, n, data):
        # every agent recovers from what it holds: its own withheld segment
        # and the segments the exchange addressed to it, one from each party
        secrets = tuple(
            BitVector(data.draw(st.integers(0, (1 << m) - 1)), m)
            for m in data.draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
        )
        scenario = Scenario(
            n=n,
            secrets=secrets,
            d=data.draw(st.integers(0, 4)),
            noise_p=data.draw(st.sampled_from([0.0, 0.3])),
        )
        first = data.draw(st.integers(0, 2**16))
        seeds = range(first, first + data.draw(st.integers(1, 4)))
        for outcome in (o for stack in run_trials(scenario, seeds) for o in stack):
            transcript = outcome.transcript
            if transcript.aborted:
                continue
            layout, registers = transcript.layout, transcript.registers
            for t in range(n - 1):
                incoming = [
                    (r, bits)
                    for r, bits in transcript.messages
                    if r.stage == STAGE_EXCHANGE and r.receiver == t
                ]
                senders = [BROKER, *(p for p in range(n - 1) if p != t)]
                assert sorted(r.sender for r, _ in incoming) == senders
                assert all(r.segment_index == t for r, _ in incoming)
                withheld = split(registers.agents[t], layout)[t]
                held = xor_all([withheld, *bit_vectors(np.array([b for _, b in incoming]))])
                assert transcript.recovered[t] == held == secrets[t]


def with_row(transcript, route, entries):
    """The transcript with one more message, route and payload entries, at the end."""
    table = transcript.messages
    messages = MessageTable(
        table.routes + (route,),
        np.append(table.ends, table.ends[-1] + len(entries)),
        np.append(table.payload, entries),
    )
    return replace(transcript, messages=messages)


class TestSecrecyChecker:
    def test_clean_transcript(self, example_secrets):
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        assert check_transcript_secrecy(transcript) == []

    def test_flags_agent_to_broker_leak(self, example_secrets):
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        bad = Route(
            stage=STAGE_EXCHANGE,
            sender=0,
            receiver=BROKER,
            label="register_segment",
            segment_index=1,
        )
        tampered = with_row(transcript, bad, [0, 0, 0])
        violations = check_transcript_secrecy(tampered)
        assert len(violations) == 1
        assert "broker" in violations[0]

    def test_flags_own_segment_transmission(self, example_secrets):
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        bad = Route(
            stage=STAGE_EXCHANGE,
            sender=1,
            receiver=0,
            label="register_segment",
            segment_index=1,
        )
        tampered = with_row(transcript, bad, [0, 0, 0])
        violations = check_transcript_secrecy(tampered)
        assert len(violations) == 1
        assert "own segment" in violations[0]


REAL_BATCH_CASES = {
    "honest": replace(ATTACK_SCENARIOS["entangle_ancilla"], eve=EveStrategy()),
    **ATTACK_SCENARIOS,
}


@pytest.mark.parametrize("name", REAL_BATCH_CASES)
def test_no_stage_upcasts_the_real_batch(name):
    # a complex upcast would keep every number and only cost speed, so the
    # dtype is pinned wherever a stage hands a batch on
    scenario = REAL_BATCH_CASES[name]
    payload, _ = concat_secrets(scenario.secrets)
    rng = np.random.default_rng(scenario.seed)
    plan = build_plan(
        payload.length, scenario.resolved_d, scenario.n, [rng], prepare_ghz(scenario.n)
    )
    assert plan.states.dtype == np.float64
    # without decoys every run passes validation and decrypts
    outcome = execute_run(replace(scenario, d=0))
    assert not outcome.transcript.aborted
    if scenario.eve.active:
        attacked, _, _ = attack_tuple(scenario.eve, plan.states, plan.index, [rng])
        assert attacked.dtype == np.float64
        assert outcome.eve_record.final_states.dtype == np.float64
    else:
        assert outcome.eve_record.final_states is None
