"""Fuzz/property tests for parsers, protocols and vehicle invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.link import CrtpPacket, CrtpPort
from repro.uav import Battery, BatteryConfig, DynamicsConfig, FlightDynamics
from repro.uav import app_protocol as proto
from repro.wifi import AtParseError, ScanRecord, parse_cwlap_line
from repro.wifi.esp8266 import Esp01Module


class TestAtParserFuzz:
    @given(st.text(max_size=80))
    def test_never_crashes_on_arbitrary_lines(self, line):
        """The parser either returns a record, None, or AtParseError."""
        try:
            result = parse_cwlap_line(line)
        except AtParseError:
            return
        assert result is None or isinstance(result, ScanRecord)

    ssid_text = st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=24
    )

    @given(
        ssid=ssid_text,
        rssi=st.integers(-110, -10),
        channel=st.integers(1, 13),
    )
    def test_format_parse_roundtrip(self, ssid, rssi, channel):
        """Whatever the ESP formats, the parser reads back identically."""
        module = Esp01Module.__new__(Esp01Module)  # formatting only
        from repro.wifi.esp8266 import CwlapOutputMask

        module.output_mask = CwlapOutputMask()
        record = ScanRecord(
            ssid=ssid, rssi_dbm=rssi, mac="aa:bb:cc:dd:ee:ff", channel=channel
        )
        line = module._format_record(record)
        parsed = parse_cwlap_line(line)
        assert parsed == record


class TestProtocolFuzz:
    @given(
        mac_bytes=st.binary(min_size=6, max_size=6),
        rssi=st.integers(-128, 127),
        channel=st.integers(0, 255),
        ssid=st.text(max_size=30),
    )
    def test_scan_record_roundtrip(self, mac_bytes, rssi, channel, ssid):
        mac = ":".join(f"{b:02x}" for b in mac_bytes)
        message = proto.ScanRecordMsg(
            mac=mac, rssi_dbm=rssi, channel=channel, ssid=ssid
        )
        decoded = proto.decode(proto.encode(message))
        assert decoded.mac == mac
        assert decoded.rssi_dbm == rssi
        assert decoded.channel == channel
        # SSID may be truncated at the 20-byte wire limit — possibly mid
        # UTF-8 character (trailing replacement char).  Whatever fully
        # decoded must be a prefix of the original.
        stripped = decoded.ssid.rstrip("�")
        assert ssid.startswith(stripped)

    @given(payload=st.binary(min_size=0, max_size=30))
    def test_decode_never_crashes_unexpectedly(self, payload):
        packet = CrtpPacket(port=CrtpPort.APP, channel=0, payload=payload)
        try:
            proto.decode(packet)
        except (ValueError, Exception):
            # Any decoding failure must be an exception, not a wrong value;
            # struct errors and ValueErrors are both acceptable rejections.
            pass


class TestBatteryProperties:
    @given(
        draws=st.lists(
            st.tuples(
                st.floats(0, 5000, allow_nan=False), st.floats(0, 100, allow_nan=False)
            ),
            max_size=50,
        )
    )
    def test_monotone_discharge(self, draws):
        battery = Battery(BatteryConfig())
        last = battery.remaining_mah
        for current, dt in draws:
            battery.draw(current, dt)
            assert battery.remaining_mah <= last + 1e-9
            last = battery.remaining_mah
            assert 0.0 <= battery.remaining_fraction <= 1.0


class TestDynamicsProperties:
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        target=st.tuples(
            st.floats(0, 3.5, allow_nan=False),
            st.floats(0, 3.0, allow_nan=False),
            st.floats(0.3, 2.0, allow_nan=False),
        ),
    )
    def test_speed_never_exceeds_limit(self, seed, target):
        rng = np.random.default_rng(seed)
        dynamics = FlightDynamics((0.5, 0.5, 0.5), DynamicsConfig(max_speed_mps=0.7))
        dynamics.airborne = True
        dynamics.set_setpoint(target)
        for _ in range(150):
            dynamics.update(0.04, rng)
            assert np.linalg.norm(dynamics.velocity) <= 0.7 + 1e-6
