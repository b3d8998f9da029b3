"""Live BGP speaker tests over localhost TCP."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.bgp import Announcement, VrpIndex
from repro.bgp.message import (
    KeepaliveMessage,
    OpenMessage,
    announcement_to_update,
    encode_message,
)
from repro.bgp.session import BgpSessionError, BgpSpeaker
from repro.netbase import Prefix
from repro.rpki import Vrp


def p(text: str) -> Prefix:
    return Prefix.parse(text)


@pytest.fixture()
def pair():
    """Two connected speakers: AS 111 (origin) and AS 3356 (transit)."""
    with BgpSpeaker(111) as origin, BgpSpeaker(3356) as transit:
        transit.connect_to("127.0.0.1", origin.port, expected_asn=111)
        origin.wait_for_peer(3356)
        yield origin, transit


class TestSessionSetup:
    def test_open_exchange(self, pair):
        origin, transit = pair
        assert origin.peers() == [3356]
        assert transit.peers() == [111]

    def test_wrong_expected_asn_rejected(self):
        with BgpSpeaker(111) as origin, BgpSpeaker(3356) as transit:
            with pytest.raises(BgpSessionError):
                transit.connect_to("127.0.0.1", origin.port, expected_asn=999)

    def test_wait_for_missing_peer_times_out(self):
        with BgpSpeaker(111) as speaker:
            with pytest.raises(BgpSessionError):
                speaker.wait_for_peer(42, timeout=0.2)


class TestRouteExchange:
    def test_announce_and_learn(self, pair):
        origin, transit = pair
        origin.announce(Announcement(p("168.122.0.0/16"), (111,)))
        route = transit.wait_for_route(p("168.122.0.0/16"))
        assert route.as_path == (111,)
        assert transit.loc_rib.forward(p("168.122.1.1/32")) == route

    def test_withdraw(self, pair):
        origin, transit = pair
        origin.announce(Announcement(p("168.122.0.0/16"), (111,)))
        transit.wait_for_route(p("168.122.0.0/16"))
        origin.withdraw(p("168.122.0.0/16"))
        transit.wait_for_withdrawal(p("168.122.0.0/16"))
        assert transit.loc_rib.forward(p("168.122.1.1/32")) is None

    def test_routes_advertised_to_late_peer(self):
        with BgpSpeaker(111) as origin:
            origin.announce(Announcement(p("168.122.0.0/16"), (111,)))
            with BgpSpeaker(20) as late:
                late.connect_to("127.0.0.1", origin.port)
                late.wait_for_route(p("168.122.0.0/16"))

    def test_loop_prevention(self, pair):
        origin, transit = pair
        # transit replays a route already carrying origin's ASN
        transit.announce(Announcement(p("9.9.0.0/16"), (3356, 111)))
        with pytest.raises(BgpSessionError):
            origin.wait_for_route(p("9.9.0.0/16"), timeout=0.5)

    def test_ipv6_route(self, pair):
        origin, transit = pair
        origin.announce(Announcement(p("2001:db8::/32"), (111,)))
        route = transit.wait_for_route(p("2001:db8::/32"))
        assert route.prefix.family == 6


class TestHandshakeLeftovers:
    """Bytes that share a TCP segment with the peer's OPEN are session
    traffic (RFC 4271 OpenSent → OpenConfirm → Established): the
    KEEPALIVE and the first UPDATE a fast peer sends right behind its
    OPEN must reach the session, not vanish with the handshake."""

    @staticmethod
    def _segment(asn: int, prefix: str) -> bytes:
        return b"".join((
            encode_message(OpenMessage(asn=asn, hold_time=90,
                                       bgp_identifier=0x0A000001)),
            encode_message(KeepaliveMessage()),
            encode_message(announcement_to_update(
                Announcement(p(prefix), (asn,))
            )),
        ))

    def test_read_one_open_returns_the_leftover_bytes(self):
        left, right = socket.socketpair()
        with left, right:
            segment = self._segment(65001, "10.1.0.0/16")
            left.sendall(segment)
            peer_open, pending = BgpSpeaker._read_one_open(right, 2.0)
        assert peer_open.asn == 65001
        assert pending == segment[len(encode_message(peer_open)):]

    def test_accepting_speaker_processes_update_behind_open(self):
        with BgpSpeaker(111) as speaker:
            with socket.create_connection(
                ("127.0.0.1", speaker.port), timeout=5.0
            ) as raw:
                raw.sendall(self._segment(65001, "10.1.0.0/16"))
                route = speaker.wait_for_route(p("10.1.0.0/16"))
                assert route.as_path == (65001,)
                assert speaker.peers() == [65001]

    def test_connecting_speaker_processes_update_behind_open(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            with BgpSpeaker(20) as speaker:
                def answer():
                    connection, _ = listener.accept()
                    with connection:
                        connection.recv(65536)  # the speaker's OPEN
                        connection.sendall(
                            self._segment(65002, "10.2.0.0/16")
                        )
                        ready.wait(5.0)

                ready = threading.Event()
                peer = threading.Thread(target=answer, daemon=True)
                peer.start()
                try:
                    assert speaker.connect_to(
                        "127.0.0.1", port, expected_asn=65002
                    ) == 65002
                    route = speaker.wait_for_route(p("10.2.0.0/16"))
                    assert route.as_path == (65002,)
                finally:
                    ready.set()
                    peer.join(5.0)
                assert not peer.is_alive()


class TestOriginValidationAtIngress:
    def test_invalid_route_rejected(self):
        """A speaker configured with VRPs drops RPKI-invalid routes —
        the paper's §2 'routers ignore invalid BGP announcements'."""
        index = VrpIndex([Vrp(p("168.122.0.0/16"), 16, 111)])
        with BgpSpeaker(20, vrp_index=index) as validator, BgpSpeaker(666) as attacker:
            attacker.connect_to("127.0.0.1", validator.port)
            validator.wait_for_peer(666)
            attacker.announce(Announcement(p("168.122.0.0/24"), (666,)))
            rejected = validator.wait_for_rejection(p("168.122.0.0/24"))
            assert rejected.origin == 666
            assert validator.loc_rib.route_for_prefix(p("168.122.0.0/24")) is None

    def test_forged_origin_subprefix_passes_nonminimal_roa(self):
        """...but the §4 attack sails through, because it is valid."""
        index = VrpIndex([Vrp(p("168.122.0.0/16"), 24, 111)])
        with BgpSpeaker(20, vrp_index=index) as validator, BgpSpeaker(666) as attacker:
            attacker.connect_to("127.0.0.1", validator.port)
            validator.wait_for_peer(666)
            attacker.announce(Announcement(p("168.122.0.0/24"), (666, 111)))
            route = validator.wait_for_route(p("168.122.0.0/24"))
            assert route.as_path == (666, 111)
            assert not validator.rejected_routes

    def test_notfound_routes_accepted(self):
        index = VrpIndex([Vrp(p("168.122.0.0/16"), 16, 111)])
        with BgpSpeaker(20, vrp_index=index) as validator, BgpSpeaker(5) as peer:
            peer.connect_to("127.0.0.1", validator.port)
            validator.wait_for_peer(5)
            peer.announce(Announcement(p("8.8.8.0/24"), (5,)))
            validator.wait_for_route(p("8.8.8.0/24"))


class TestFullStack:
    def test_rtr_fed_speaker_blocks_hijack(self):
        """RPKI -> RTR -> BGP speaker, no shortcuts: the router learns
        VRPs over the wire and applies them to live UPDATEs."""
        from repro.core import LocalCache
        from repro.rtr import RtrClient

        with LocalCache() as cache:
            cache.refresh_from_vrps([Vrp(p("168.122.0.0/16"), 16, 111)])
            server = cache.serve()
            with RtrClient(server.host, server.port) as rtr:
                rtr.sync()
                index = VrpIndex(rtr.vrps)

        with BgpSpeaker(20, vrp_index=index) as router, BgpSpeaker(666) as attacker:
            attacker.connect_to("127.0.0.1", router.port)
            router.wait_for_peer(666)
            attacker.announce(Announcement(p("168.122.0.0/24"), (666,)))
            router.wait_for_rejection(p("168.122.0.0/24"))
            assert router.loc_rib.route_for_prefix(p("168.122.0.0/24")) is None
