//! UART telemetry framing — the link carrying measurements off the probe.
//!
//! Frame format: `0xA5 | len(1) | payload(len) | crc16(2, big-endian)`,
//! CRC-16/CCITT over the payload. The decoder scans byte slices in place:
//! garbage between frames is skipped, corrupt frames are counted and
//! re-hunted for embedded genuine frames, and only a frame left unfinished
//! at the end of a slice is copied, into a small carry buffer that the next
//! slice completes.

use crate::eeprom::crc16_ccitt;
use crate::IsifError;

/// Frame start-of-header byte.
pub const SOH: u8 = 0xA5;
/// Maximum payload bytes per frame.
pub const MAX_PAYLOAD: usize = 255;

/// Encodes one telemetry frame.
///
/// # Errors
///
/// Returns [`IsifError::FrameError`] if the payload exceeds
/// [`MAX_PAYLOAD`].
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, IsifError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(IsifError::FrameError {
            reason: "payload exceeds 255 bytes",
        });
    }
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.push(SOH);
    out.push(payload.len() as u8);
    out.extend_from_slice(payload);
    let crc = crc16_ccitt(payload);
    out.extend_from_slice(&crc.to_be_bytes());
    Ok(out)
}

/// What [`FrameDecoder::decode`] concluded at one point of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A frame closed with a valid CRC; its payload, borrowed from the
    /// decoded slice (or the decoder's carry buffer).
    Frame(&'a [u8]),
    /// A frame closed with a mismatched CRC and was dropped. Genuine frames
    /// recovered by re-scanning its bytes for an embedded start-of-header
    /// (a false `0xA5` in line noise whose bogus length field spans a real
    /// frame) follow as [`Decoded::Frame`]s.
    CrcError,
}

/// A snapshot of the decoder's cumulative link counters.
///
/// The first three counters keep their historical semantics exactly; the
/// remaining three were added with the re-hunt/flush accounting fixes and
/// together close the byte ledger: every byte decoded is either skipped
/// while hunting (`resyncs`), part of a decoded frame, discarded
/// (`discarded_bytes`), or still in flight inside the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Frames decoded successfully (including recovered ones).
    pub good_frames: u64,
    /// Frames dropped for CRC mismatch.
    pub crc_errors: u64,
    /// Bytes skipped while hunting for a start-of-header.
    pub resyncs: u64,
    /// Frames recovered by re-scanning the bytes of a dropped or aborted
    /// frame (also counted in `good_frames`).
    pub recovered_frames: u64,
    /// In-flight frames abandoned by an idle-line [`FrameDecoder::flush`]
    /// (including partial frames re-adopted and re-abandoned within one
    /// flush).
    pub aborted_frames: u64,
    /// Bytes consumed into a committed frame and ultimately thrown away
    /// without decoding into any frame — counted when a CRC mismatch or a
    /// flush discards the frame's bytes, net of any recovered frames.
    pub discarded_bytes: u64,
}

impl LinkStats {
    /// Adds another snapshot's counters into this one (service-side
    /// aggregation across many line decoders).
    pub fn merge(&mut self, other: &LinkStats) {
        self.good_frames += other.good_frames;
        self.crc_errors += other.crc_errors;
        self.resyncs += other.resyncs;
        self.recovered_frames += other.recovered_frames;
        self.aborted_frames += other.aborted_frames;
        self.discarded_bytes += other.discarded_bytes;
    }
}

/// Wire length of the frame whose SOH is `bytes[at]`, if it lies whole
/// inside `bytes`.
#[inline]
fn whole_frame(bytes: &[u8], at: usize) -> Option<usize> {
    let len = usize::from(*bytes.get(at + 1)?) + 4;
    (at + len <= bytes.len()).then_some(len)
}

/// Whether a whole frame's CRC matches its payload.
#[inline]
fn crc_matches(frame: &[u8]) -> bool {
    let (payload, crc) = frame[2..].split_at(frame.len() - 4);
    u16::from_be_bytes([crc[0], crc[1]]) == crc16_ccitt(payload)
}

/// Resolves one whole committed frame (SOH through CRC): a valid frame is
/// delivered; a corrupt one reports [`Decoded::CrcError`] and has its bytes
/// re-hunted. Returns the offset in `frame` of a trailing partial the
/// re-hunt adopts as the new committed frame.
#[inline]
fn close(stats: &mut LinkStats, frame: &[u8], on: &mut impl FnMut(Decoded<'_>)) -> Option<usize> {
    if crc_matches(frame) {
        stats.good_frames += 1;
        on(Decoded::Frame(&frame[2..frame.len() - 2]));
        return None;
    }
    stats.crc_errors += 1;
    on(Decoded::CrcError);
    rescan(stats, &frame[1..], &mut |p| on(Decoded::Frame(p))).map(|at| at + 1)
}

/// Re-hunts the bytes that followed a dropped frame's SOH (`span`) for
/// embedded genuine frames.
///
/// Complete CRC-valid frames decode into `on`; a complete but
/// CRC-mismatched candidate is treated as a noise alignment (only its SOH
/// is skipped, so a real frame starting inside it is still found); a
/// trailing incomplete candidate is returned as its offset in `span`, for
/// the caller to adopt as the new in-flight frame so later stream bytes can
/// complete it. Bytes that end up in none of those count into
/// `discarded_bytes`, keeping the byte ledger exact.
fn rescan(stats: &mut LinkStats, span: &[u8], on: &mut impl FnMut(&[u8])) -> Option<usize> {
    // The SOH that committed the dropped frame is itself lost.
    stats.discarded_bytes += 1;
    let mut i = 0;
    while let Some(skip) = span[i..].iter().position(|&b| b == SOH) {
        stats.discarded_bytes += skip as u64;
        i += skip;
        let Some(len) = whole_frame(span, i) else {
            return Some(i);
        };
        let frame = &span[i..i + len];
        if crc_matches(frame) {
            stats.good_frames += 1;
            stats.recovered_frames += 1;
            on(&frame[2..len - 2]);
            i += len;
        } else {
            stats.discarded_bytes += 1;
            i += 1;
        }
    }
    stats.discarded_bytes += (span.len() - i) as u64;
    None
}

/// A resynchronizing frame decoder over byte slices.
///
/// [`decode`](Self::decode) validates every frame that lies whole inside
/// the slice in place and hands out its payload borrowed; a frame cut off
/// by the end of the slice is carried (at most [`MAX_PAYLOAD`] + 4 bytes)
/// and completed by the next call. Events, payloads and [`LinkStats`] are the
/// same for any chunking of one byte stream.
///
/// ```
/// use hotwire_isif::uart::{encode_frame, Decoded, FrameDecoder};
///
/// let mut dec = FrameDecoder::new();
/// let wire = encode_frame(b"v=123")?;
/// let mut got = Vec::new();
/// // Any split of the wire decodes the same frame.
/// for chunk in wire.chunks(3) {
///     dec.decode(chunk, |d| {
///         if let Decoded::Frame(payload) = d {
///             got.push(payload.to_vec());
///         }
///     });
/// }
/// assert_eq!(got, [b"v=123".to_vec()]);
/// # Ok::<(), hotwire_isif::IsifError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrameDecoder {
    /// The in-flight frame — its committed SOH and every byte after it —
    /// left unfinished by the end of the last slice; empty while hunting.
    carry: Vec<u8>,
    stats: LinkStats,
}

impl FrameDecoder {
    /// Creates a decoder in hunt state.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Decodes the next `bytes` of the stream, reporting every frame that
    /// closes inside them to `on`, in wire order.
    ///
    /// A CRC mismatch reports [`Decoded::CrcError`], then any frames
    /// recovered from the dropped frame's bytes as [`Decoded::Frame`]s.
    pub fn decode(&mut self, mut bytes: &[u8], mut on: impl FnMut(Decoded<'_>)) {
        if !self.carry.is_empty() {
            bytes = self.complete_carry(bytes, &mut on);
            if !self.carry.is_empty() {
                return;
            }
        }
        let stats = &mut self.stats;
        let mut i = 0;
        while let Some(skip) = bytes[i..].iter().position(|&b| b == SOH) {
            stats.resyncs += skip as u64;
            // `at` is a committed SOH: resolve its frame in place.
            let mut at = i + skip;
            loop {
                let Some(len) = whole_frame(bytes, at) else {
                    self.carry.extend_from_slice(&bytes[at..]);
                    return;
                };
                match close(stats, &bytes[at..at + len], &mut on) {
                    Some(adopted) => at += adopted,
                    None => {
                        i = at + len;
                        break;
                    }
                }
            }
        }
        stats.resyncs += (bytes.len() - i) as u64;
    }

    /// Tops the carried frame up from the head of `bytes` until it
    /// resolves into hunting, or `bytes` runs out; returns the unconsumed
    /// rest.
    fn complete_carry<'b>(
        &mut self,
        mut bytes: &'b [u8],
        on: &mut impl FnMut(Decoded<'_>),
    ) -> &'b [u8] {
        while !self.carry.is_empty() {
            // First up to the length byte, then up to the whole frame.
            let need = self.carry.get(1).map_or(2, |&len| usize::from(len) + 4);
            let take = (need - self.carry.len()).min(bytes.len());
            self.carry.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if whole_frame(&self.carry, 0).is_some() {
                match close(&mut self.stats, &self.carry, on) {
                    Some(adopted) => {
                        self.carry.drain(..adopted);
                    }
                    None => self.carry.clear(),
                }
            } else if bytes.is_empty() {
                break;
            }
        }
        bytes
    }

    /// Frames decoded successfully.
    #[inline]
    pub fn good_frames(&self) -> u64 {
        self.stats.good_frames
    }

    /// Frames dropped for CRC mismatch.
    #[inline]
    pub fn crc_errors(&self) -> u64 {
        self.stats.crc_errors
    }

    /// Bytes skipped while hunting for a start-of-header.
    #[inline]
    pub fn resyncs(&self) -> u64 {
        self.stats.resyncs
    }

    /// Frames recovered by re-scanning dropped or aborted frame bytes.
    #[inline]
    pub fn recovered_frames(&self) -> u64 {
        self.stats.recovered_frames
    }

    /// In-flight frames abandoned by an idle-line flush.
    #[inline]
    pub fn aborted_frames(&self) -> u64 {
        self.stats.aborted_frames
    }

    /// Bytes discarded without decoding into any frame.
    #[inline]
    pub fn discarded_bytes(&self) -> u64 {
        self.stats.discarded_bytes
    }

    /// Bytes currently held inside the decoder (the committed SOH plus
    /// everything consumed after it), zero when hunting.
    #[inline]
    pub fn in_flight_bytes(&self) -> u64 {
        self.carry.len() as u64
    }

    /// Snapshot of all cumulative link counters.
    #[inline]
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Idle-line flush: a UART receiver detects inter-frame silence and
    /// resets its framing, so a spurious start-of-header in line noise
    /// whose false length field is large cannot swallow genuine frames
    /// indefinitely (a classic length-prefixed-framing failure mode — found
    /// by the property tests).
    ///
    /// The abandoned in-flight bytes are re-hunted exactly as on a CRC
    /// mismatch, so a genuine frame buried inside a false frame still
    /// decodes into `on`. Each abandoned partial counts into
    /// `aborted_frames` and its unrecovered bytes into `discarded_bytes`;
    /// the three historical counters are untouched.
    pub fn flush(&mut self, mut on: impl FnMut(&[u8])) {
        while !self.carry.is_empty() {
            self.stats.aborted_frames += 1;
            // The re-hunt may adopt a shorter trailing partial; an idle
            // line truncates that too, so the loop aborts it as well. Each
            // pass strictly shrinks the carry, so this terminates.
            match rescan(&mut self.stats, &self.carry[1..], &mut on) {
                Some(offset) => {
                    self.carry.drain(..1 + offset);
                }
                None => self.carry.clear(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-byte state machine [`FrameDecoder::decode`] replaced, kept
    /// as the oracle of the chunking contract.
    mod oracle {
        use super::super::*;

        /// One event of the byte machine, in wire order.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Event {
            Frame(Vec<u8>),
            CrcError,
        }

        #[derive(Debug, Clone, Default)]
        enum State {
            #[default]
            Hunt,
            Length,
            Payload {
                expected: usize,
            },
            Crc {
                have_high: bool,
                high: u8,
            },
        }

        #[derive(Debug, Clone, Default)]
        pub struct ByteMachine {
            state: State,
            /// Payload bytes of the in-flight frame.
            buf: Vec<u8>,
            /// Every raw byte consumed since (not including) the committed
            /// SOH.
            raw: Vec<u8>,
            pub stats: LinkStats,
        }

        impl ByteMachine {
            pub fn push(&mut self, byte: u8, events: &mut Vec<Event>) {
                match self.state {
                    State::Hunt => {
                        if byte == SOH {
                            self.raw.clear();
                            self.state = State::Length;
                        } else {
                            self.stats.resyncs += 1;
                        }
                    }
                    State::Length => {
                        self.raw.push(byte);
                        self.buf.clear();
                        self.state = if byte == 0 {
                            State::Crc {
                                have_high: false,
                                high: 0,
                            }
                        } else {
                            State::Payload {
                                expected: byte as usize,
                            }
                        };
                    }
                    State::Payload { expected } => {
                        self.raw.push(byte);
                        self.buf.push(byte);
                        if self.buf.len() == expected {
                            self.state = State::Crc {
                                have_high: false,
                                high: 0,
                            };
                        }
                    }
                    State::Crc { have_high, high } => {
                        self.raw.push(byte);
                        if !have_high {
                            self.state = State::Crc {
                                have_high: true,
                                high: byte,
                            };
                        } else {
                            self.state = State::Hunt;
                            if u16::from_be_bytes([high, byte]) == crc16_ccitt(&self.buf) {
                                self.stats.good_frames += 1;
                                events.push(Event::Frame(std::mem::take(&mut self.buf)));
                            } else {
                                self.stats.crc_errors += 1;
                                events.push(Event::CrcError);
                                let span = std::mem::take(&mut self.raw);
                                self.rescan(&span, events);
                            }
                        }
                    }
                }
            }

            fn rescan(&mut self, span: &[u8], events: &mut Vec<Event>) {
                self.stats.discarded_bytes += 1;
                let mut i = 0;
                while i < span.len() {
                    if span[i] != SOH {
                        self.stats.discarded_bytes += 1;
                        i += 1;
                        continue;
                    }
                    // The candidate's length byte and wire end.
                    let Some(&len) = span.get(i + 1) else {
                        self.adopt(&span[i + 1..], events);
                        return;
                    };
                    let end = i + len as usize + 4;
                    if end > span.len() {
                        self.adopt(&span[i + 1..], events);
                        return;
                    }
                    let payload = &span[i + 2..end - 2];
                    if u16::from_be_bytes([span[end - 2], span[end - 1]]) == crc16_ccitt(payload) {
                        self.stats.good_frames += 1;
                        self.stats.recovered_frames += 1;
                        events.push(Event::Frame(payload.to_vec()));
                        i = end;
                    } else {
                        self.stats.discarded_bytes += 1;
                        i += 1;
                    }
                }
            }

            /// Adopts a partial frame found at the tail of a re-hunted
            /// span as the in-flight frame: `rest` (length byte onward)
            /// is fed through the machine again, which cannot complete it.
            fn adopt(&mut self, rest: &[u8], events: &mut Vec<Event>) {
                self.state = State::Length;
                for &b in rest {
                    self.push(b, events);
                }
            }

            pub fn in_flight_bytes(&self) -> u64 {
                match self.state {
                    State::Hunt => 0,
                    _ => self.raw.len() as u64 + 1,
                }
            }

            pub fn flush(&mut self, events: &mut Vec<Event>) {
                while !matches!(self.state, State::Hunt) {
                    self.stats.aborted_frames += 1;
                    self.buf.clear();
                    self.state = State::Hunt;
                    let span = std::mem::take(&mut self.raw);
                    self.rescan(&span, events);
                }
            }
        }
    }

    use oracle::{ByteMachine, Event};

    fn decode_all(dec: &mut FrameDecoder, bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        dec.decode(bytes, |d| {
            if let Decoded::Frame(p) = d {
                frames.push(p.to_vec());
            }
        });
        frames
    }

    fn flush_all(dec: &mut FrameDecoder) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        dec.flush(|p| frames.push(p.to_vec()));
        frames
    }

    fn events_of(dec: &mut FrameDecoder, bytes: &[u8]) -> Vec<Event> {
        let mut events = Vec::new();
        dec.decode(bytes, |d| {
            events.push(match d {
                Decoded::Frame(p) => Event::Frame(p.to_vec()),
                Decoded::CrcError => Event::CrcError,
            })
        });
        events
    }

    #[test]
    fn round_trip_single_frame() {
        let mut dec = FrameDecoder::new();
        let wire = encode_frame(b"flow=42.5cm/s").unwrap();
        let frames = decode_all(&mut dec, &wire);
        assert_eq!(frames, vec![b"flow=42.5cm/s".to_vec()]);
        assert_eq!(dec.good_frames(), 1);
    }

    #[test]
    fn back_to_back_frames() {
        let mut dec = FrameDecoder::new();
        let mut wire = encode_frame(b"a").unwrap();
        wire.extend(encode_frame(b"bb").unwrap());
        wire.extend(encode_frame(b"ccc").unwrap());
        let frames = decode_all(&mut dec, &wire);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[2], b"ccc");
    }

    #[test]
    fn garbage_between_frames_is_skipped() {
        let mut dec = FrameDecoder::new();
        let mut wire = vec![0x00, 0x12, 0x99];
        wire.extend(encode_frame(b"x").unwrap());
        wire.extend([0xFF, 0x33]);
        wire.extend(encode_frame(b"y").unwrap());
        let frames = decode_all(&mut dec, &wire);
        assert_eq!(frames.len(), 2);
        assert!(dec.resyncs() >= 5);
    }

    #[test]
    fn corrupt_payload_dropped() {
        let mut dec = FrameDecoder::new();
        let mut wire = encode_frame(b"important").unwrap();
        wire[4] ^= 0x01; // flip a payload bit
        let frames = decode_all(&mut dec, &wire);
        assert!(frames.is_empty());
        assert_eq!(dec.crc_errors(), 1);
    }

    #[test]
    fn decoder_recovers_after_corrupt_frame() {
        let mut dec = FrameDecoder::new();
        let mut wire = encode_frame(b"bad").unwrap();
        let n = wire.len();
        wire[n - 1] ^= 0xFF; // corrupt CRC
        wire.extend(encode_frame(b"good").unwrap());
        let frames = decode_all(&mut dec, &wire);
        assert_eq!(frames, vec![b"good".to_vec()]);
    }

    #[test]
    fn empty_payload_frame() {
        let mut dec = FrameDecoder::new();
        let wire = encode_frame(b"").unwrap();
        let frames = decode_all(&mut dec, &wire);
        assert_eq!(frames, vec![Vec::<u8>::new()]);
    }

    #[test]
    fn oversized_payload_rejected() {
        let big = vec![0u8; 256];
        assert!(encode_frame(&big).is_err());
        let max = vec![7u8; 255];
        assert!(encode_frame(&max).is_ok());
    }

    #[test]
    fn decode_distinguishes_crc_errors() {
        let mut dec = FrameDecoder::new();
        let mut wire = encode_frame(b"payload").unwrap();
        let n = wire.len();
        wire[n - 1] ^= 0x01; // corrupt the CRC low byte
        let mut outcomes: Vec<Vec<Event>> =
            wire.iter().map(|&b| events_of(&mut dec, &[b])).collect();
        // The dropped span contains no embedded SOH, so nothing recovers.
        assert_eq!(outcomes.pop(), Some(vec![Event::CrcError]));
        assert!(outcomes.iter().all(Vec::is_empty));

        // A good frame closes with its payload on the final byte.
        let wire = encode_frame(b"ok").unwrap();
        let last = wire
            .iter()
            .map(|&b| events_of(&mut dec, &[b]))
            .last()
            .unwrap();
        assert_eq!(last, vec![Event::Frame(b"ok".to_vec())]);
        assert_eq!(
            dec.stats(),
            LinkStats {
                good_frames: 1,
                crc_errors: 1,
                resyncs: 0,
                recovered_frames: 0,
                aborted_frames: 0,
                // The dropped frame's SOH + len + 7 payload + 2 CRC bytes.
                discarded_bytes: 11,
            }
        );
    }

    #[test]
    fn false_soh_spanning_a_genuine_frame_recovers_it() {
        // Regression: a spurious 0xA5 whose bogus length field spans a
        // genuine frame used to swallow that frame silently. The re-hunt
        // inside the dropped span must decode it.
        let mut dec = FrameDecoder::new();
        let inner = encode_frame(b"hello").unwrap(); // 9 wire bytes
        let mut wire = vec![SOH, 25]; // false header claiming 25 payload bytes
        wire.extend([0x11; 16]); // bogus "payload" prefix
        wire.extend(&inner); // the genuine frame, inside the false payload
        wire.extend([0x00, 0x00]); // false CRC (mismatches)
        let mut frames = decode_all(&mut dec, &wire);
        frames.extend(flush_all(&mut dec));
        assert_eq!(frames, vec![b"hello".to_vec()]);
        let stats = dec.stats();
        assert_eq!(stats.crc_errors, 1);
        assert_eq!(stats.good_frames, 1);
        assert_eq!(stats.recovered_frames, 1);
        // Ledger: 29 wire bytes = 9 recovered + 20 discarded, 0 resyncs.
        assert_eq!(stats.resyncs, 0);
        assert_eq!(stats.discarded_bytes, 20);
    }

    #[test]
    fn unterminated_false_frame_yields_genuine_frame_on_flush() {
        // A false SOH whose length field points past the end of the burst
        // keeps the decoder mid-frame; the idle-line flush must re-hunt the
        // in-flight bytes and hand back the genuine frame buried in them.
        let mut dec = FrameDecoder::new();
        let mut wire = vec![SOH, 0xFF]; // claims 255 payload bytes
        wire.extend(encode_frame(b"hello").unwrap());
        let mid = decode_all(&mut dec, &wire);
        assert!(mid.is_empty(), "frame is still swallowed mid-burst");
        let recovered = flush_all(&mut dec);
        assert_eq!(recovered, vec![b"hello".to_vec()]);
        let stats = dec.stats();
        assert_eq!(stats.aborted_frames, 1);
        assert_eq!(stats.recovered_frames, 1);
        // The false SOH and its length byte are all that is lost.
        assert_eq!(stats.discarded_bytes, 2);
        assert_eq!(dec.in_flight_bytes(), 0);
    }

    #[test]
    fn flush_counts_aborted_partial_frames() {
        let mut dec = FrameDecoder::new();
        for b in [SOH, 0x05, 0x01, 0x02] {
            assert_eq!(events_of(&mut dec, &[b]), vec![]);
        }
        assert_eq!(dec.in_flight_bytes(), 4);
        assert!(flush_all(&mut dec).is_empty());
        let stats = dec.stats();
        assert_eq!(stats.aborted_frames, 1);
        assert_eq!(stats.discarded_bytes, 4);
        // The historical counters are untouched by an abort.
        assert_eq!(
            (stats.good_frames, stats.crc_errors, stats.resyncs),
            (0, 0, 0)
        );
        // Idempotent: flushing a hunting decoder counts nothing.
        assert!(flush_all(&mut dec).is_empty());
        assert_eq!(dec.stats(), stats);
    }

    #[test]
    fn link_stats_merge_adds_counters() {
        let mut a = LinkStats {
            good_frames: 1,
            crc_errors: 2,
            resyncs: 3,
            recovered_frames: 4,
            aborted_frames: 5,
            discarded_bytes: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(
            a,
            LinkStats {
                good_frames: 2,
                crc_errors: 4,
                resyncs: 6,
                recovered_frames: 8,
                aborted_frames: 10,
                discarded_bytes: 12,
            }
        );
    }

    /// Builds a hostile wire from drawn segments: kind 0 is line noise,
    /// kinds 1–3 an encoded frame of the segment's bytes, intact, with a
    /// bit flipped, or with one byte dropped or inserted (`knob` picks the
    /// position and the bit).
    fn hostile_wire(segments: &[(u8, Vec<u8>, u16)]) -> Vec<u8> {
        let mut wire = Vec::new();
        for (kind, bytes, knob) in segments {
            if *kind == 0 {
                // Noise rich in false start-of-header bytes.
                wire.extend(bytes.iter().map(|&b| if b < 24 { SOH } else { b }));
                continue;
            }
            let mut frame = encode_frame(bytes).unwrap();
            let at = *knob as usize % frame.len();
            match kind {
                1 => {}
                2 => frame[at] ^= 1 << (knob % 8),
                _ if knob & 0x100 != 0 => {
                    frame.remove(at);
                }
                _ if knob & 0x200 != 0 => frame.insert(at, SOH),
                _ => frame.insert(at, (knob >> 10) as u8),
            }
            wire.extend(frame);
        }
        wire
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn any_chunking_matches_the_byte_machine(
            segments in prop::collection::vec(
                (0u8..4, prop::collection::vec(any::<u8>(), 0..40), any::<u16>()),
                0..10,
            ),
            cuts in prop::collection::vec(0usize..48, 0..12),
        ) {
            let wire = hostile_wire(&segments);
            let mut oracle = ByteMachine::default();
            let mut dec = FrameDecoder::new();
            let (mut want, mut got) = (Vec::new(), Vec::new());
            let mut rest = &wire[..];
            let mut cuts = cuts.iter();
            while !rest.is_empty() {
                let take = cuts.next().map_or(rest.len(), |&c| c.min(rest.len()));
                let (chunk, tail) = rest.split_at(take);
                rest = tail;
                for &b in chunk {
                    oracle.push(b, &mut want);
                }
                got.extend(events_of(&mut dec, chunk));
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(dec.stats(), oracle.stats);
                prop_assert_eq!(dec.in_flight_bytes(), oracle.in_flight_bytes());
            }
            oracle.flush(&mut want);
            dec.flush(|p| got.push(Event::Frame(p.to_vec())));
            prop_assert_eq!(&got, &want, "wire {:02x?}", wire);
            prop_assert_eq!(dec.stats(), oracle.stats);
            prop_assert_eq!(dec.in_flight_bytes(), 0);
            // The byte ledger closes once the line is idle.
            let stats = dec.stats();
            let frame_bytes: u64 = got
                .iter()
                .map(|e| match e {
                    Event::Frame(p) => p.len() as u64 + 4,
                    Event::CrcError => 0,
                })
                .sum();
            prop_assert_eq!(
                wire.len() as u64,
                stats.resyncs + stats.discarded_bytes + frame_bytes
            );
        }
    }
}
