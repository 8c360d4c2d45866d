import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzcast import distribution, protocol
from ghzcast.adversary import (
    ALWAYS_COMPUTATIONAL,
    MEASURE_RESEND,
    RANDOM_BASIS,
    EveRecord,
    EveStrategy,
    attack_tuple,
    eve_postprocess,
)
from ghzcast.analysis import detection_experiment
from ghzcast.bitvec import BitVector, SegmentLayout, bit_vectors, concat_secrets, split, xor_all
from ghzcast.distribution import build_plan
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
    MessageTable,
    Route,
    Scenario,
    ValidationReport,
    check_route_secrecy,
    classical_exchange,
    decrypt_and_measure,
    decrypt_honest,
    embed_secret,
    exchange_entries,
    recover_secret,
    run_protocol,
    run_routes,
)
from ghzcast.statevec import ghz_row, outcome_law, phase_flip_rows, prepare_ghz, width
from conftest import lone_run
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

    def test_equality_sees_every_field(self, example_secrets):
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        assert not transcript.aborted
        table, report = transcript.messages, transcript.validation

        def flipped(array, at):
            out = array.copy()
            out[at] ^= 1
            return out

        same = replace(
            transcript,
            messages=MessageTable(table.routes, table.ends.copy(), table.payload.copy()),
            validation=ValidationReport(report.wrong.copy(), report.threshold),
            register_bits=transcript.register_bits.copy(),
        )
        assert same == transcript
        routes = (table.routes[0]._replace(label="decoy_positions"), *table.routes[1:])
        changed = [
            replace(transcript, messages=replace(table, payload=flipped(table.payload, -1))),
            replace(transcript, messages=replace(table, routes=routes)),
            replace(transcript, register_bits=None),
            replace(transcript, register_bits=transcript.register_bits.ravel()),
            replace(transcript, validation=replace(report, wrong=flipped(report.wrong, (0, 0, 0)))),
        ]
        for other in changed:
            assert other != transcript and transcript != other
        assert replace(report, threshold=report.threshold + 1) != report
        assert replace(table, ends=table.ends + 1) != table
        assert transcript != transcript.validation

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
        plan = build_plan(6, 6, 3, [protocol_rng])
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
            wrong = transcript.validation.wrong[0][:, r.sender]
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
        # a lone run's transcript holds a view of its stack's register array,
        # so its arrays refuse writes rather than change the stack under it
        transcript = run_protocol(Scenario(n=3, secrets=example_secrets, seed=12))
        assert not transcript.aborted
        messages = transcript.messages
        for array in (messages.ends, messages.payload, transcript.register_bits):
            with pytest.raises(ValueError, match="read-only"):
                array[0] ^= 1

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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_lone_run_reports_as_its_stack_of_one(self, example_secrets, seed):
        # seed 0 passes at 5 errors of 24 and seed 1 aborts at 10; both
        # transcripts hold the report of the run's stack of one, run axis included
        eve = EveStrategy(tag=MEASURE_RESEND, basis_policy=ALWAYS_COMPUTATIONAL)
        scenario = Scenario(
            n=3, secrets=example_secrets, d=12, eve=eve, threshold_fraction=0.25, seed=seed
        )
        stack, _ = lone_run(scenario)
        report = run_protocol(scenario).validation
        assert report == stack.validation and report.wrong.shape == (1, 12, 2)
        assert report.verdict == ("pass" if stack.passed[0] else "fail")

    def test_stack_totals_and_per_run_verdicts(self):
        # two runs of 4 decoys on 3 agent slots: run 1 has 6 errors, run 0 none
        wrong = np.zeros((2, 4, 3), dtype=bool)
        wrong[1, :2] = True
        report = ValidationReport(wrong, threshold=1.5)
        assert (report.decoy_checks, report.errors) == (24, 6)
        assert report.passed.tolist() == [True, False]
        with pytest.raises(ValueError, match="from passed"):
            report.verdict
        # a lone run's report reads its verdict by the same rule
        runs = [ValidationReport(w[None], threshold=1.5) for w in wrong]
        assert [(r.decoy_checks, r.errors, r.verdict) for r in runs] == [
            (12, 0, "pass"),
            (12, 6, "fail"),
        ]
        # without decoys a run has nothing to fail
        empty = np.zeros((1, 0, 3), dtype=bool)
        assert ValidationReport(empty, threshold=0.0).passed.tolist() == [True]
        assert ValidationReport(empty, threshold=0.0).verdict == "pass"

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
        for seed in range(first, first + data.draw(st.integers(1, 4))):
            transcript = run_protocol(replace(scenario, seed=seed))
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


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=7).map(tuple).map(SegmentLayout),
    st.integers(1, 4),
    st.integers(0, 5),
    st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_routes_entries_and_eves_fold_agree(layout, runs, d, seed):
    # the sending order is stated twice, by the routes and by the register
    # entries the payload is cut from, and Eve folds the payload by position
    n, m = layout.segments + 1, layout.total
    registers = np.random.default_rng(seed).integers(0, 2, (runs, n, m))
    routes, ends, opened = run_routes(layout, d)
    entries = exchange_entries(layout)
    payload = classical_exchange(registers, entries)
    # the opening carries the segment lengths, the decoy positions and every
    # agent's decoy outcomes; the exchange's payload ends follow on from it
    assert ends[opened - 1] == (n - 1) + n * d
    exchange, cuts = routes[opened:], (ends[opened - 1 :] - ends[opened - 1]).tolist()
    assert cuts[-1] == payload.shape[1]

    # each message's payload is the segment its route names, of its sender's register
    starts = np.cumsum((0, *layout.lengths))
    row = {BROKER: n - 1, **{i: i for i in range(n - 1)}}
    for r, start, end in zip(exchange, cuts, cuts[1:]):
        assert r.stage == STAGE_EXCHANGE and r.receiver == r.segment_index
        segment = registers[:, row[r.sender], starts[r.segment_index] : starts[r.segment_index + 1]]
        assert np.array_equal(payload[:, start:end], segment)

    # every payload position is sent by n - 1 parties: all but its owner
    assert np.array_equal(np.bincount(entries % m, minlength=m), np.full(m, n - 1))

    # the reference fold, one route at a time
    known = np.zeros((runs, m), dtype=np.int64)
    for r, start, end in zip(exchange, cuts, cuts[1:]):
        known[:, starts[r.segment_index] : starts[r.segment_index + 1]] ^= payload[:, start:end]
    # with the owner's withheld bit it is the fold of all registers
    withheld = registers[:, np.repeat(np.arange(n - 1), layout.lengths), np.arange(m)]
    assert np.array_equal(known ^ withheld, np.bitwise_xor.reduce(registers, axis=1))

    # Eve's fold: she read every agent's qubit in the Hadamard basis and saw
    # 0, so every bit leaks and her guess is the fold of the public shares
    tuples = runs * (m + d)
    record = EveRecord(
        strategy=EveStrategy(tag=MEASURE_RESEND, basis_policy=RANDOM_BASIS, k=n - 1),
        targets=tuple(range(n - 1)),
        hadamard=np.ones((tuples, n - 1), dtype=bool),
        outcomes=np.zeros((tuples, n - 1), dtype=np.int64),
    )
    is_decoy = np.tile(np.arange(m + d) >= m, (runs, 1))
    passed = np.ones(runs, dtype=bool)
    rngs = [np.random.default_rng(t) for t in range(runs)]
    guesses = eve_postprocess(record, layout, is_decoy, passed, payload, entries, rngs)
    assert np.array_equal(guesses, known)


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
        assert check_route_secrecy(transcript.messages.routes) == []

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
        violations = check_route_secrecy(tampered.messages.routes)
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
        violations = check_route_secrecy(tampered.messages.routes)
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
    plan = build_plan(payload.length, scenario.resolved_d, scenario.n, [rng])
    states, index = plan.stream()
    assert states.dtype == np.float64
    # without decoys every run passes validation and decrypts
    stack, _ = lone_run(replace(scenario, d=0))
    assert stack.passed[0]
    if scenario.eve.active:
        attacked, _, _ = attack_tuple(scenario.eve, states, index, [rng])
        assert attacked.dtype == np.float64
        assert stack.eve.final_states.dtype == np.float64
    else:
        assert stack.eve.final_states is None


class DecoyAmplitudesBuilt(Exception):
    pass


def test_honest_stacks_build_no_decoy_amplitudes(monkeypatch):
    # an untouched decoy's outcome is its recorded sign, so only a stream an
    # adversary acts on is prepared as amplitudes
    def refuse(signs):
        raise DecoyAmplitudesBuilt

    monkeypatch.setattr(distribution, "hadamard_product_rows", refuse)
    honest = REAL_BATCH_CASES["honest"]
    noisy = replace(honest, noise_p=0.1)
    stats = detection_experiment(noisy, 40)
    assert stats.all_checks == 40 * noisy.resolved_d * (noisy.n - 1)
    assert 0 < stats.aborts < 40
    assert not run_protocol(honest).aborted
    for scenario in ATTACK_SCENARIOS.values():
        with pytest.raises(DecoyAmplitudesBuilt):
            run_protocol(scenario)


class DenseDecryption(Exception):
    pass


def test_honest_stacks_measure_no_state(monkeypatch):
    # an honest information tuple is the GHZ row or its phase-flipped twin,
    # so its decryption is drawn from their outcome law, built once per
    # experiment; only an attacked stream is embedded and measured
    def refuse(*args):
        raise DenseDecryption

    built = []

    def counted(states, qubits, hadamard):
        # attacked validation reads a law over the agents' qubits alone
        if len(qubits) == width(states):
            built.append(states)
        return outcome_law(states, qubits, hadamard)

    monkeypatch.setattr(protocol, "embed_secret", refuse)
    monkeypatch.setattr(protocol, "decrypt_and_measure", refuse)
    monkeypatch.setattr(protocol, "outcome_law", counted)
    honest = REAL_BATCH_CASES["honest"]
    noisy = replace(honest, noise_p=0.1)
    with monkeypatch.context() as small:
        small.setattr(protocol, "STACK_ENTRIES", 10 * noisy.run_entries)
        stats = detection_experiment(noisy, 40)
    assert 0 < stats.aborts < 40
    assert len(built) == 1
    transcript = run_protocol(honest)
    assert transcript.recovered == honest.secrets
    assert len(built) == 2
    passing = replace(ATTACK_SCENARIOS["measure_resend/random"], threshold_fraction=0.99)
    with pytest.raises(DenseDecryption):
        run_protocol(passing)
    assert len(built) == 2


def boundary_draws(law: np.ndarray, b: int, j: int) -> list[float]:
    """Draws u whose product with row b's total lands on its j-th running
    sum, or one float to either side of it."""
    sums = np.cumsum(law[b])
    u = sums[j] / sums[-1]
    return [float(x) for x in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)) if x < 1.0]


@given(n=st.integers(2, 12), data=st.data())
@settings(max_examples=80, deadline=None)
def test_honest_decryption_is_the_dense_pick(n, data):
    m = data.draw(st.integers(1, 6), label="payload bits")
    payload = BitVector(data.draw(st.integers(0, (1 << m) - 1), label="payload"), m)
    runs = data.draw(st.integers(1, 3), label="runs")
    ghz = ghz_row(n)
    law = outcome_law(np.concatenate((ghz, phase_flip_rows(ghz, n - 1))), range(n), True)
    u = np.empty(runs * m)
    for t in range(u.size):
        if data.draw(st.booleans(), label="boundary"):
            j = data.draw(st.integers(0, (1 << n) - 1), label="running sum")
            u[t] = data.draw(st.sampled_from(boundary_draws(law, payload.bit(t % m), j)))
        else:
            u[t] = data.draw(st.floats(0.0, 1.0, exclude_max=True), label="u")
    u = u.reshape(runs, m)
    index = np.zeros(runs * m, dtype=np.intp)
    dense = decrypt_and_measure(*embed_secret(prepare_ghz(n), index, payload, n), n, u)[0]
    assert np.array_equal(decrypt_honest(law, payload, u), dense)


# seeds at the edges of numpy's uint32 word split: one word, two, and the
# widest seed detection_experiment draws
SEED_EDGES = (0, 1, 2**32 - 1, 2**32, 2**63 - 1)


@given(
    seeds=st.lists(
        st.one_of(
            st.sampled_from(SEED_EDGES), st.integers(0, 2**63 - 1), st.integers(2**63, 2**200)
        ),
        min_size=1,
        max_size=6,
    )
)
@example(seeds=[*SEED_EDGES, 2**64, 2**96, 2**128 - 1, 2**128, 2**160 + 3, 2**200])
@settings(max_examples=150, deadline=None)
def test_spawned_words_are_numpys(seeds):
    # the words a stack's generators are built from are those numpy's own
    # SeedSequence gives both spawned children, over seeds of any word count
    words = protocol._spawned_words(seeds)
    assert words.shape == (2, len(seeds), 4) and words.dtype == np.uint64
    for t, seed in enumerate(seeds):
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(2)):
            assert np.array_equal(words[i, t], child.generate_state(4, np.uint64)), (seed, i)
            built = np.random.Generator(np.random.PCG64(protocol._SpawnedState(words[i, t])))
            numpys = np.random.default_rng(child)
            assert built.bit_generator.state == numpys.bit_generator.state
            assert np.array_equal(built.random(3), numpys.random(3))
            assert np.array_equal(built.integers(0, 2, size=5), numpys.integers(0, 2, size=5))


def transcript_digest(scenario: Scenario) -> str:
    transcript = run_protocol(scenario)
    stack, _ = lone_run(scenario)
    registers = transcript.register_bits
    return hashlib.sha256(
        repr(
            (
                transcript.decoy_positions,
                transcript.stages,
                transcript.aborted,
                transcript.messages.payload.tolist(),
                transcript.messages.ends.tolist(),
                None if registers is None else registers.ravel().tolist(),
                transcript.recovered,
                transcript.validation.wrong.ravel().tolist(),
                stack.guesses.ravel().tolist(),
            )
        ).encode()
    ).hexdigest()[:16]


# computed with SeedSequence(seed).spawn(2) and default_rng, before the
# stack's generators were derived in one pass
WIDE_SEED_DIGESTS = {
    ("honest", 2**64 + 5): "a328d9cc46f20328",
    ("honest", 2**128 + 7): "12d8703432e960d5",
    ("honest", 2**200): "a0c6cfe85e478904",
    ("passing", 2**64 + 5): "0fec27bedc944102",
    ("passing", 2**128 + 7): "a2d7fe081a50b608",
    ("passing", 2**200): "0cf9bc4ef594d08b",
}


@pytest.mark.parametrize("name, seed", WIDE_SEED_DIGESTS)
def test_seeds_past_64_bits_keep_their_runs(name, seed):
    scenario = REAL_BATCH_CASES["honest"]
    if name == "passing":
        scenario = replace(ATTACK_SCENARIOS["measure_resend/random"], threshold_fraction=0.99)
    scenario = replace(scenario, seed=seed)
    assert not run_protocol(scenario).aborted
    assert transcript_digest(scenario) == WIDE_SEED_DIGESTS[name, seed]


class SeedSequenceBuilt(Exception):
    pass


def test_stacks_build_no_seed_sequence(monkeypatch):
    # a stack's generators are built from the words of its seeds' children,
    # so neither a SeedSequence nor default_rng is called per run
    def refuse(*args, **kwargs):
        raise SeedSequenceBuilt

    honest = replace(REAL_BATCH_CASES["honest"], noise_p=0.1)
    attacked = ATTACK_SCENARIOS["intercept_replace"]
    expected = [detection_experiment(honest, 40), detection_experiment(attacked, 10)]
    random = SimpleNamespace(**{**vars(np.random), "SeedSequence": refuse, "default_rng": refuse})
    monkeypatch.setattr(protocol, "np", SimpleNamespace(**{**vars(np), "random": random}))
    with monkeypatch.context() as small:
        small.setattr(protocol, "STACK_ENTRIES", 10 * honest.run_entries)
        stats = detection_experiment(honest, 40)
    assert 0 < stats.aborts < 40
    assert [stats, detection_experiment(attacked, 10)] == expected
    with pytest.raises(SeedSequenceBuilt):
        protocol.np.random.default_rng(0)
