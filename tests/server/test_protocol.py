"""Wire-protocol tests: round-trips, chunking, and malformed frames.

Hypothesis drives random circuits, targets and settings through the
envelope encoders and back; the adversarial half feeds truncated,
corrupt and foreign-version bytes in and requires a clean
:class:`ProtocolError` (never a bare ``struct``/``json``/``pickle``
exception) out.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.circuit.serialization import circuit_from_payload, circuit_to_payload
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    decode_jobs,
    decode_results,
    encode_error,
    encode_frame,
    encode_jobs,
    encode_results,
    pack_blob,
    split_chunks,
    unpack_blob,
)
from repro.transpiler import Target, TranspilerError


def _random_circuit(rng: np.random.Generator, num_qubits: int, depth: int):
    circuit = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(depth):
        kind = rng.integers(0, 5)
        qubit = int(rng.integers(0, num_qubits))
        if kind == 0:
            circuit.h(qubit)
        elif kind == 1:
            circuit.x(qubit)
        elif kind == 2:
            circuit.u3(*(float(v) for v in rng.uniform(0, np.pi, size=3)), qubit)
        elif kind >= 3 and num_qubits >= 2:
            other = int(rng.integers(0, num_qubits - 1))
            other += other >= qubit
            circuit.cx(qubit, other)
    circuit.measure_all()
    return circuit


def _assert_same_circuit(a: QuantumCircuit, b: QuantumCircuit):
    assert len(a.data) == len(b.data)
    assert a.num_qubits == b.num_qubits
    for inst_a, inst_b in zip(a.data, b.data):
        assert inst_a.operation.name == inst_b.operation.name
        assert inst_a.qubits == inst_b.qubits
        assert np.allclose(inst_a.operation.params, inst_b.operation.params)


class TestFrameRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        envelope=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.integers(-(2**31), 2**31),
                st.text(max_size=32),
                st.lists(st.integers(0, 255), max_size=8),
            ),
            max_size=6,
        )
    )
    def test_any_json_envelope_round_trips(self, envelope):
        assert decode_frame(encode_frame(envelope)) == envelope

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_circuit_and_target_blobs_round_trip(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        circuit = _random_circuit(
            rng, int(rng.integers(1, 5)), int(rng.integers(1, 10))
        )
        payload = circuit_to_payload(circuit)
        _assert_same_circuit(
            circuit, circuit_from_payload(unpack_blob(pack_blob(payload)))
        )
        target = Target.preset(
            data.draw(st.sampled_from(["melbourne", "linear:5", "grid:2x3"]))
        )
        rebuilt = Target.from_payload(unpack_blob(pack_blob(target.to_payload())))
        assert rebuilt == target

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_job_envelope_round_trips(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        jobs = []
        for index in range(data.draw(st.integers(1, 5))):
            circuit = _random_circuit(rng, 2, 4)
            target = Target.full(2)
            settings_dict = {
                "pipeline": data.draw(st.sampled_from(["rpo", "level1", None])),
                "optimization_level": data.draw(st.sampled_from([None, 0, 3])),
                "seed": index,
                "initial_layout": None,
            }
            jobs.append(
                (circuit_to_payload(circuit), target.to_payload(), settings_dict)
            )
        decoded = decode_jobs(decode_frame(encode_frame(encode_jobs(jobs))))
        assert len(decoded) == len(jobs)
        for (c_in, t_in, s_in), (c_out, t_out, s_out) in zip(jobs, decoded):
            _assert_same_circuit(
                circuit_from_payload(c_in), circuit_from_payload(c_out)
            )
            assert t_in == t_out
            assert s_in == s_out

    def test_result_envelope_round_trips_mixed_outcomes(self):
        okay = ("payload-stand-in", [], [], 0.25, {"depth": 3})
        outcomes = [("ok", okay), ("error", TranspilerError("boom"))]
        decoded = decode_results(decode_frame(encode_frame(encode_results(outcomes))))
        assert decoded[0] == ("ok", okay)
        status, error = decoded[1]
        assert status == "error"
        assert isinstance(error, TranspilerError)
        assert "boom" in str(error)

    def test_result_entries_carry_only_their_outcome(self):
        okay = ("payload-stand-in", [], [], 0.25, {"result_cache": "hit"})
        envelope = encode_results([("ok", okay), ("error", TranspilerError("boom"))])
        assert [sorted(entry) for entry in envelope["results"]] == [
            ["blob", "ok"],
            ["error", "kind", "ok"],
        ]
        decoded = decode_results(decode_frame(encode_frame(envelope)))
        assert decoded[0][1][4] == {"result_cache": "hit"}

    def test_error_envelope_raises_on_decode(self):
        envelope = decode_frame(encode_frame(encode_error("it broke")))
        with pytest.raises(ProtocolError, match="it broke"):
            decode_results(envelope)


class TestMalformedFrames:
    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_frame(b"RP")

    def test_truncated_body(self):
        frame = encode_frame({"type": "compile", "jobs": []})
        with pytest.raises(ProtocolError, match="length mismatch"):
            decode_frame(frame[:-3])

    def test_trailing_garbage(self):
        frame = encode_frame({"a": 1})
        with pytest.raises(ProtocolError, match="length mismatch"):
            decode_frame(frame + b"xx")

    def test_bad_magic(self):
        frame = encode_frame({"a": 1})
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(b"XXXX" + frame[4:])

    def test_foreign_version_names_both(self):
        frame = bytearray(encode_frame({"a": 1}))
        frame[4] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(bytes(frame))
        assert str(PROTOCOL_VERSION) in str(excinfo.value)
        assert str(PROTOCOL_VERSION + 1) in str(excinfo.value)

    def test_non_json_body(self):
        body = b"\xff\xfe not json"
        import struct

        frame = struct.pack(">4sBI", b"RPOC", PROTOCOL_VERSION, len(body)) + body
        with pytest.raises(ProtocolError, match="not JSON"):
            decode_frame(frame)

    def test_non_object_body(self):
        body = json.dumps([1, 2, 3]).encode()
        import struct

        frame = struct.pack(">4sBI", b"RPOC", PROTOCOL_VERSION, len(body)) + body
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(frame)

    def test_corrupt_base64_blob(self):
        with pytest.raises(ProtocolError, match="base64"):
            unpack_blob("!!! not base64 !!!")

    def test_corrupt_pickle_blob(self):
        import base64

        blob = base64.b64encode(b"not a pickle").decode()
        with pytest.raises(ProtocolError, match="pickle"):
            unpack_blob(blob)

    def test_compile_envelope_wrong_type(self):
        with pytest.raises(ProtocolError, match="compile"):
            decode_jobs({"type": "result"})

    def test_compile_envelope_missing_jobs(self):
        with pytest.raises(ProtocolError, match="jobs"):
            decode_jobs({"type": "compile"})

    def test_job_blob_wrong_shape(self):
        envelope = {"type": "compile", "jobs": [pack_blob(("just", "two"))]}
        with pytest.raises(ProtocolError, match="tuple"):
            decode_jobs(envelope)

    def test_result_envelope_wrong_type(self):
        with pytest.raises(ProtocolError, match="result"):
            decode_results({"type": "compile"})

    def test_protocol_error_is_transpiler_error(self):
        """Callers handling TranspilerError cover wire failures too."""
        assert issubclass(ProtocolError, TranspilerError)


class TestChunking:
    @settings(max_examples=30, deadline=None)
    @given(
        items=st.lists(st.integers(), max_size=50),
        chunk_size=st.integers(1, 12),
    )
    def test_split_then_merge_is_identity(self, items, chunk_size):
        chunks = split_chunks(items, chunk_size)
        assert [item for chunk in chunks for item in chunk] == items
        assert all(len(chunk) <= chunk_size for chunk in chunks)
        if items:
            # all chunks full except possibly the last
            assert all(len(chunk) == chunk_size for chunk in chunks[:-1])

    def test_zero_chunk_size_rejected(self):
        with pytest.raises(ProtocolError, match="chunk_size"):
            split_chunks([1, 2], 0)

    def test_empty_input_yields_no_chunks(self):
        assert split_chunks([], 4) == []
