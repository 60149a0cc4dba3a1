"""Tests for shared utilities: determinism, table rendering and the
slot-storing constructors of the trace records."""

import dataclasses
import inspect
from dataclasses import FrozenInstanceError, InitVar, dataclass, field

import pytest
from hypothesis import given, strategies as st

from repro.core.classification import HopArea
from repro.core.flags import Flag
from repro.core.interworking import Cloud, InterworkingMode, TunnelComposition
from repro.core.segments import DetectedSegment
from repro.netsim.addressing import IPv4Address
from repro.probing.records import QuotedLse, Trace, TraceHop
from repro.probing.sanitize import AnomalyKind, TraceAnomaly
from repro.probing.tunnels import ObservedTunnel, TunnelType
from repro.util.determinism import DeterministicRng, int_hash, unit_hash
from repro.util.slots import slot_init
from repro.util.tables import format_table


class TestIntHash:
    def test_stable(self):
        assert int_hash("a", 1) == int_hash("a", 1)

    def test_distinct_keys(self):
        assert int_hash("a", 1) != int_hash("a", 2)
        assert int_hash("a", 1) != int_hash("b", 1)

    def test_order_matters(self):
        assert int_hash("a", "b") != int_hash("b", "a")

    def test_64_bit(self):
        assert 0 <= int_hash("x") < 2**64

    def test_no_separator_ambiguity(self):
        # "ab" + "c" must not hash like "a" + "bc"
        assert int_hash("ab", "c") != int_hash("a", "bc")


class TestUnitHash:
    @given(st.text(max_size=20), st.integers())
    def test_in_unit_interval(self, text, number):
        value = unit_hash(text, number)
        assert 0.0 <= value < 1.0

    def test_roughly_uniform(self):
        draws = [unit_hash("u", i) for i in range(2_000)]
        mean = sum(draws) / len(draws)
        assert 0.45 < mean < 0.55
        assert sum(1 for d in draws if d < 0.1) == pytest.approx(
            200, rel=0.35
        )


class TestDeterministicRng:
    def test_same_key_same_stream(self):
        a = DeterministicRng("k", 1)
        b = DeterministicRng("k", 1)
        assert [a.random() for _ in range(5)] == [
            b.random() for _ in range(5)
        ]

    def test_different_keys_differ(self):
        a = DeterministicRng("k", 1)
        b = DeterministicRng("k", 2)
        assert [a.random() for _ in range(5)] != [
            b.random() for _ in range(5)
        ]

    def test_full_random_api(self):
        rng = DeterministicRng("api")
        assert rng.sample(range(10), 3)
        assert rng.choice([1, 2, 3]) in (1, 2, 3)
        items = list(range(5))
        rng.shuffle(items)
        assert sorted(items) == list(range(5))


class TestFormatTable:
    def test_column_alignment(self):
        text = format_table(["col", "x"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert lines[0].index("x") == lines[2].index("1")

    def test_float_formatting(self):
        assert "0.333" in format_table(["v"], [[1 / 3]])

    def test_title_optional(self):
        untitled = format_table(["v"], [[1]])
        assert not untitled.startswith("\n")
        titled = format_table(["v"], [[1]], title="T")
        assert titled.splitlines()[0] == "T"

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "-" in text

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])


_A = IPv4Address.from_string("10.0.0.1")
_B = IPv4Address.from_string("10.0.0.2")
_LSE = QuotedLse(16_005, 1, True, 254)
_HOP = TraceHop(3, _A, 1.5, 250, (_LSE,), True, True, 7, 46, ("sr",), False)
_CLOUD = Cloud(HopArea.SR, (1, 2))

#: every record built through ``slot_init``, with one argument per
#: field (none of them the field's default)
SLOT_RECORDS = {
    QuotedLse: (16_005, 1, True, 254),
    TraceHop: (3, _A, 1.5, 250, (_LSE,), True, True, 7, 46, ("sr",), False),
    Trace: ("vp-1", 9, _B, 42, (_HOP,), False, (1, 2)),
    DetectedSegment: (Flag.CO, (1, 2), (_A, _B), (16_005, 16_005), (1, 2), True),
    TraceAnomaly: (
        AnomalyKind.MARTIAN_SOURCE, "vp-1", "10.0.0.2", 42, 3, "blanked", False
    ),
    ObservedTunnel: (TunnelType.EXPLICIT, (1, 2)),
    Cloud: (HopArea.MPLS, (4,)),
    TunnelComposition: ((_CLOUD,), InterworkingMode.FULL_SR),
}


@pytest.mark.parametrize("cls", list(SLOT_RECORDS), ids=lambda c: c.__name__)
class TestSlotRecords:
    def test_signature_lists_fields_in_order_with_defaults(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        assert [(p.name, p.default, p.kind) for p in params] == [
            (
                f.name,
                inspect.Parameter.empty
                if f.default is dataclasses.MISSING
                else f.default,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            )
            for f in dataclasses.fields(cls)
        ]

    def test_position_and_keyword_hold_exactly_the_arguments(self, cls):
        args = SLOT_RECORDS[cls]
        names = [f.name for f in dataclasses.fields(cls)]
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(names, args)))
        assert by_position == by_keyword
        assert hash(by_position) == hash(by_keyword)
        assert repr(by_position) == repr(by_keyword)
        for record in (by_position, by_keyword):
            for name, arg in zip(names, args):
                assert getattr(record, name) is arg

    def test_omitted_arguments_take_their_defaults(self, cls):
        fields = dataclasses.fields(cls)
        required = [f for f in fields if f.default is dataclasses.MISSING]
        record = cls(*SLOT_RECORDS[cls][: len(required)])
        for f in fields[len(required):]:
            assert getattr(record, f.name) == f.default

    def test_assignment_raises(self, cls):
        record = cls(*SLOT_RECORDS[cls])
        for f in dataclasses.fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, None)


class TestRecordValidation:
    @pytest.mark.parametrize(
        "args", [(2**20, 0, True, 1), (-1, 0, True, 1), (16, 8, True, 1),
                 (16, 0, True, 256), (16, 0, True, -1)],
    )
    def test_bad_quoted_lse(self, args):
        with pytest.raises(ValueError):
            QuotedLse(*args)

    @pytest.mark.parametrize(
        "args",
        [
            (Flag.CO, (1, 2), (_A,), (5, 5), (1, 1)),  # unequal lengths
            (Flag.CO, (), (), (), ()),  # no hop
            (Flag.CVR, (1,), (_A,), (5,), (1,)),  # consecutive, one hop
            (Flag.LSO, (1, 2), (_A, _B), (5, 5), (1, 1)),  # stack, two
            (Flag.CO, (1, 3), (_A, _B), (5, 5), (1, 1)),  # not contiguous
        ],
    )
    def test_bad_detected_segment(self, args):
        with pytest.raises(ValueError):
            DetectedSegment(*args)
        # the batch builders' constructor skips exactly these checks
        assert DetectedSegment.trusted(*args).hop_indices == args[1]

    def test_trusted_stores_every_field_in_its_own_slot(self):
        args = SLOT_RECORDS[DetectedSegment]
        segment = DetectedSegment.trusted(*args)
        assert segment == DetectedSegment(*args)
        for f, arg in zip(dataclasses.fields(DetectedSegment), args):
            assert getattr(segment, f.name) is arg


class TestSlotInit:
    def test_post_init_runs(self):
        seen = []

        @slot_init
        @dataclass(frozen=True, slots=True)
        class Checked:
            value: int = 3

            def __post_init__(self):
                seen.append(self.value)

        assert Checked().value == 3 and Checked(value=5).value == 5
        assert seen == [3, 5]

    def test_default_factory_refused(self):
        with pytest.raises(TypeError, match="default_factory"):

            @slot_init
            @dataclass(frozen=True, slots=True)
            class Bad:
                items: list = field(default_factory=list)

    def test_init_false_refused(self):
        with pytest.raises(TypeError, match="init=False"):

            @slot_init
            @dataclass(frozen=True, slots=True)
            class Bad:
                hidden: int = field(default=0, init=False)

    def test_initvar_refused(self):
        with pytest.raises(TypeError, match="InitVar"):

            @slot_init
            @dataclass(frozen=True, slots=True)
            class Bad:
                value: int
                scale: InitVar[int] = 1

    def test_unslotted_class_refused(self):
        with pytest.raises(TypeError, match="slot"):

            @slot_init
            @dataclass(frozen=True)
            class Bad:
                value: int
