//! Property-based tests of the platform blocks: storage and framing must
//! round-trip arbitrary payloads and survive arbitrary corruption.

use hotwire_isif::eeprom::{crc16_ccitt, CalibrationStore, SLOT_CAPACITY, SLOT_COUNT};
use hotwire_isif::uart::{encode_frame, Decoded, FrameDecoder, MAX_PAYLOAD};
use hotwire_isif::IsifError;
use proptest::prelude::*;

/// Decodes `wire` and collects every good frame's payload.
fn decode_all(dec: &mut FrameDecoder, wire: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    dec.decode(wire, |d| {
        if let Decoded::Frame(f) = d {
            frames.push(f.to_vec());
        }
    });
    frames
}

proptest! {
    #[test]
    fn eeprom_round_trips_any_payload(
        slot in 0usize..SLOT_COUNT,
        payload in prop::collection::vec(any::<u8>(), 0..=SLOT_CAPACITY),
    ) {
        let mut store = CalibrationStore::new();
        store.write_record(slot, &payload).unwrap();
        prop_assert_eq!(store.read_record(slot).unwrap(), &payload[..]);
    }

    #[test]
    fn eeprom_detects_any_single_byte_corruption(
        payload in prop::collection::vec(any::<u8>(), 4..=SLOT_CAPACITY),
        byte in 0usize..SLOT_CAPACITY,
    ) {
        prop_assume!(byte < payload.len());
        let mut store = CalibrationStore::new();
        store.write_record(0, &payload).unwrap();
        store.corrupt(0, byte);
        let result = store.read_record(0);
        let corrupt = matches!(result, Err(IsifError::CorruptRecord { slot: 0 }));
        prop_assert!(corrupt, "corruption not detected");
    }

    #[test]
    fn f64_records_round_trip(values in prop::collection::vec(-1e12f64..1e12, 0..8)) {
        let payload = CalibrationStore::encode_f64s(&values);
        let back = CalibrationStore::decode_f64s(&payload).unwrap();
        prop_assert_eq!(back, values);
    }

    #[test]
    fn uart_round_trips_any_payload(payload in prop::collection::vec(any::<u8>(), 0..=MAX_PAYLOAD)) {
        let wire = encode_frame(&payload).unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = None;
        dec.decode(&wire, |d| {
            if let Decoded::Frame(frame) = d {
                got = Some(frame.to_vec());
            }
        });
        prop_assert_eq!(got, Some(payload));
    }

    #[test]
    fn uart_survives_garbage_followed_by_idle_flush(
        garbage in prop::collection::vec(any::<u8>(), 0..64),
        payload in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        // Garbage may contain an accidental SOH whose false length field
        // would swallow real frames; the idle-line flush between bursts (as
        // a real UART receiver implements) restores framing deterministically.
        let mut dec = FrameDecoder::new();
        dec.decode(&garbage, |_| {});
        dec.flush(|_| {}); // inter-frame idle detected
        let mut frames = Vec::new();
        dec.decode(&encode_frame(&payload).unwrap(), |d| {
            if let Decoded::Frame(f) = d {
                frames.push(f.to_vec());
            }
        });
        prop_assert_eq!(frames, vec![payload]);
    }

    #[test]
    fn uart_embedded_frame_always_recovered(
        prefix in prop::collection::vec(any::<u8>(), 0..48),
        payload in prop::collection::vec(any::<u8>(), 0..48),
        suffix in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        // Any byte stream containing an intact encoded frame must yield
        // that frame after at most one idle flush, no matter what corrupt
        // prefix/suffix surrounds it — including prefixes ending in a
        // spurious SOH whose false length field spans the genuine frame
        // (the swallowing bug the re-hunt fix closes).
        let frame = encode_frame(&payload).unwrap();
        let mut wire = prefix.clone();
        wire.extend(&frame);
        wire.extend(&suffix);
        let mut dec = FrameDecoder::new();
        let mut frames = decode_all(&mut dec, &wire);
        dec.flush(|f| frames.push(f.to_vec())); // the single idle flush
        prop_assert!(
            frames.contains(&payload),
            "intact frame lost: prefix {prefix:02x?}, payload {payload:02x?}, suffix {suffix:02x?}"
        );
    }

    #[test]
    fn uart_byte_ledger_is_exact(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..8),
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 0..4),
    ) {
        // Conservation law of the decode counters: after a final flush,
        // every pushed byte was either skipped while hunting (resyncs),
        // part of a decoded frame (payload + 4 framing bytes), or
        // discarded — nothing vanishes from LinkStats, which is exactly
        // the accounting hole the flush() fix closed.
        let mut wire = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            wire.extend(chunk);
            if let Some(p) = payloads.get(i) {
                wire.extend(encode_frame(p).unwrap());
            }
        }
        let mut dec = FrameDecoder::new();
        let mut decoded = decode_all(&mut dec, &wire);
        dec.flush(|f| decoded.push(f.to_vec()));
        let stats = dec.stats();
        let frame_bytes: u64 = decoded.iter().map(|p| p.len() as u64 + 4).sum();
        prop_assert_eq!(
            wire.len() as u64,
            stats.resyncs + stats.discarded_bytes + frame_bytes,
            "ledger mismatch: {:?} over wire {:02x?}", stats, wire
        );
        prop_assert_eq!(stats.good_frames, decoded.len() as u64);
    }

    #[test]
    fn crc16_detects_single_bit_flips(
        payload in prop::collection::vec(any::<u8>(), 1..64),
        bit in 0usize..512,
    ) {
        prop_assume!(bit < payload.len() * 8);
        let crc = crc16_ccitt(&payload);
        let mut corrupted = payload.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(crc, crc16_ccitt(&corrupted));
    }
}
