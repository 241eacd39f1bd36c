//! Versioned, self-describing `.smore` model artifacts.
//!
//! Everything the repo could do before this module died with its process:
//! a model trained on one machine could not be fanned out to a serving
//! fleet, resumed for adaptation, or pinned as a regression fixture. The
//! `.smore` format closes that gap for both serving surfaces:
//!
//! - [`QuantizedSmore::save`] / [`QuantizedSmore::load`] — the frozen
//!   bit-packed serving model, **bit-exact** across the round trip: every
//!   codebook word, residual plane, Gram entry and centring statistic is
//!   stored verbatim (the pre-rotated sliding-bind codebooks included), so
//!   a loaded snapshot reproduces the original's predictions to the bit.
//! - [`Smore::save`] / [`Smore::load`] — the dense model needed to *resume
//!   adaptation* (enrol new domains, re-quantize). Codebooks are not
//!   stored: dense encoding is deterministic in the configuration seed, so
//!   the encoder is rebuilt exactly from the config plus the fitted value
//!   ranges.
//!
//! # Wire format
//!
//! Everything is little-endian. A 16-byte header —
//!
//! ```text
//! magic "SMOREHDC" (8) | version u16 | kind u8 | reserved u8 | section_count u32
//! ```
//!
//! — is followed by `section_count` sections, each
//!
//! ```text
//! section_id u32 | payload_crc32 u32 | payload_len u64 | payload bytes
//! ```
//!
//! Counts and lengths are `u64`. Every section payload — and the section
//! table itself — is written with [`WireWriter`] and read with a
//! [`WireReader`] labelled with the section's name, the same codec the
//! network protocol frames with ([`crate::wire`]). Per-section CRC-32
//! (IEEE) catches bit rot and truncation before any payload is decoded;
//! every length and count is bounds-checked against the bytes present
//! before allocation, with checked arithmetic, so corrupt or crafted bytes
//! produce [`SmoreError::CorruptArtifact`] — never a panic or an absurd
//! allocation. Readers reject unknown section ids and unknown format
//! versions outright (forward compatibility by refusal: a file written by
//! a newer writer is reported as such, not misparsed), and a trailing-byte
//! or duplicate-section container is likewise rejected.
//!
//! The format is hand-rolled rather than serde-derived deliberately: the
//! build environment vendors all dependencies offline, and the payloads
//! are raw `u64`/`f32` arrays for which an explicit layout is both the
//! simplest and the only bit-exactness-auditable choice.

use std::path::Path;

use smore_hdc::encoder::{EncoderConfig, MultiSensorEncoder, ValueRange};
use smore_hdc::memory::Quantization;
use smore_hdc::model::HdcClassifier;
use smore_packed::{PackedHypervector, PackedNgramEncoder, ResidualPacked};
use smore_tensor::Matrix;

use crate::centering::Centerer;
use crate::config::{DomainInit, RangeMode, SmoreConfig};
use crate::delta::{DeltaDomain, DeltaEnrollmentRecord, DeltaMeta, SnapshotDelta};
use crate::descriptor::DomainDescriptors;
use crate::smore_model::{ChannelStats, Fitted, Smore};
use crate::wire::{crc32, WireReader, WireResult, WireWriter};
use crate::{QuantizedSmore, Result, SmoreError};

/// Magic bytes opening every `.smore` artifact.
pub const MAGIC: [u8; 8] = *b"SMOREHDC";

/// Current artifact format version. Bump on any layout change; readers
/// reject every version they were not built for.
pub const FORMAT_VERSION: u16 = 1;

/// Length of the fixed artifact header in bytes — the prefix
/// [`kind_of`] needs to sniff a file without reading its payload (e.g.
/// the state-dir recovery scan validating thousands of per-tenant delta
/// files with one small read each).
pub const HEADER_LEN: usize = 16;

/// What a `.smore` artifact contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A frozen [`QuantizedSmore`] serving model.
    Quantized,
    /// A fitted dense [`Smore`] (resumable for adaptation).
    Dense,
    /// A per-tenant [`SnapshotDelta`] overlay (`DeltaV1`): only the
    /// tenant's enrolled domains + session metadata, chained onto a
    /// shared base at load time.
    Delta,
}

impl ArtifactKind {
    fn to_byte(self) -> u8 {
        match self {
            ArtifactKind::Quantized => 1,
            ArtifactKind::Dense => 2,
            ArtifactKind::Delta => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self> {
        match b {
            1 => Ok(ArtifactKind::Quantized),
            2 => Ok(ArtifactKind::Dense),
            3 => Ok(ArtifactKind::Delta),
            other => Err(SmoreError::corrupt("header", format!("unknown artifact kind {other}"))),
        }
    }
}

// Section ids. Shared sections first, then kind-specific ones.
const SEC_CONFIG: u32 = 1;
const SEC_SCALER: u32 = 2;
const SEC_CENTERING: u32 = 3;
const SEC_DOMAIN_TAGS: u32 = 4;
const SEC_ENCODER_RANGE: u32 = 5;
const SEC_PACKED_DESCRIPTORS: u32 = 16;
const SEC_PACKED_CLASSES: u32 = 17;
const SEC_CLASS_GRAM: u32 = 18;
const SEC_PACKED_CODEBOOKS: u32 = 19;
const SEC_PACKED_CODEBOOKS_ROT: u32 = 20;
const SEC_PACKED_SIGNATURES: u32 = 21;
const SEC_DENSE_DESCRIPTORS: u32 = 32;
const SEC_DOMAIN_MODELS: u32 = 33;
const SEC_DELTA_META: u32 = 48;
const SEC_DELTA_DOMAINS: u32 = 49;
const SEC_DELTA_RECORDS: u32 = 50;

/// Human-readable section name for error context.
fn section_name(id: u32) -> &'static str {
    match id {
        SEC_CONFIG => "config",
        SEC_SCALER => "scaler",
        SEC_CENTERING => "centering",
        SEC_DOMAIN_TAGS => "domain_tags",
        SEC_ENCODER_RANGE => "encoder_range",
        SEC_PACKED_DESCRIPTORS => "packed_descriptors",
        SEC_PACKED_CLASSES => "packed_classes",
        SEC_CLASS_GRAM => "class_gram",
        SEC_PACKED_CODEBOOKS => "packed_codebooks",
        SEC_PACKED_CODEBOOKS_ROT => "packed_codebooks_rot",
        SEC_PACKED_SIGNATURES => "packed_signatures",
        SEC_DENSE_DESCRIPTORS => "dense_descriptors",
        SEC_DOMAIN_MODELS => "domain_models",
        SEC_DELTA_META => "delta_meta",
        SEC_DELTA_DOMAINS => "delta_domains",
        SEC_DELTA_RECORDS => "delta_records",
        _ => "unknown",
    }
}

/// Sniffs the header of artifact bytes: magic, version and kind — without
/// decoding any section. Used to route a file to the right loader (e.g.
/// `smore_stream::ServeEngine::from_artifact`) and by tooling.
///
/// # Errors
///
/// Returns [`SmoreError::CorruptArtifact`] for a short buffer, wrong
/// magic, unsupported version or unknown kind byte.
pub fn kind_of(bytes: &[u8]) -> Result<ArtifactKind> {
    let Some((&[m0, m1, m2, m3, m4, m5, m6, m7, v0, v1, kind, reserved, _, _, _, _], _)) =
        bytes.split_first_chunk::<16>()
    else {
        return Err(SmoreError::corrupt(
            "header",
            format!("{} bytes is shorter than the 16-byte header", bytes.len()),
        ));
    };
    if [m0, m1, m2, m3, m4, m5, m6, m7] != MAGIC {
        return Err(SmoreError::corrupt("header", "bad magic (not a .smore artifact)"));
    }
    let version = u16::from_le_bytes([v0, v1]);
    if version != FORMAT_VERSION {
        return Err(SmoreError::corrupt(
            "header",
            format!(
                "format version {version} is not supported (this build reads {FORMAT_VERSION})"
            ),
        ));
    }
    if reserved != 0 {
        return Err(SmoreError::corrupt("header", "reserved header byte must be zero"));
    }
    ArtifactKind::from_byte(kind)
}

// ---------------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------------

/// Assembles the header + section table around the given payloads.
fn write_container(kind: ArtifactKind, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let body: usize = sections.iter().map(|(_, p)| 16 + p.len()).sum();
    let mut out = WireWriter::with_capacity(HEADER_LEN + body);
    out.bytes(&MAGIC);
    out.u16(FORMAT_VERSION);
    out.u8(kind.to_byte());
    out.u8(0); // reserved
    out.u32(sections.len() as u32);
    for (id, payload) in sections {
        out.u32(*id);
        out.u32(crc32(payload));
        out.u64(payload.len() as u64);
        out.bytes(payload);
    }
    out.into_bytes()
}

/// A parsed section: `(id, payload)`.
type Section<'a> = (u32, &'a [u8]);

/// Reinterprets a flat `[lo, hi, lo, hi, …]` run as `(lo, hi)` pairs;
/// a trailing odd value is dropped (callers size the run as `2 × n`).
fn pairs(flat: &[f32]) -> Vec<(f32, f32)> {
    let mut out = Vec::with_capacity(flat.len() / 2);
    let mut rest = flat;
    while let Some((&[lo, hi], r)) = rest.split_first_chunk::<2>() {
        out.push((lo, hi));
        rest = r;
    }
    out
}

/// Walks the container: validates the header, every section's bounds and
/// CRC, duplicate ids and trailing garbage. Returns `(kind, sections)`.
fn parse_container(bytes: &[u8]) -> Result<(ArtifactKind, Vec<Section<'_>>)> {
    let kind = kind_of(bytes)?;
    let mut table = WireReader::new(bytes, "section_table");
    // kind_of validated magic, version, kind and the reserved byte.
    table.take(HEADER_LEN - 4)?;
    let section_count = table.u32()? as usize;
    let mut sections: Vec<Section<'_>> = Vec::with_capacity(section_count.min(64));
    for i in 0..section_count {
        let truncated = |_| {
            SmoreError::corrupt(
                "section_table",
                format!("truncated at section {i} of {section_count}"),
            )
        };
        let id = table.u32().map_err(truncated)?;
        let crc = table.u32().map_err(truncated)?;
        let len = table.u64().map_err(truncated)?;
        let len = usize::try_from(len).map_err(|_| {
            SmoreError::corrupt(section_name(id), format!("section length {len} overflows usize"))
        })?;
        let remain = table.remaining();
        let payload = table.take(len).map_err(|_| {
            SmoreError::corrupt(
                section_name(id),
                format!("payload of {len} bytes truncated ({remain} remain)"),
            )
        })?;
        if crc32(payload) != crc {
            return Err(SmoreError::corrupt(section_name(id), "checksum mismatch"));
        }
        if sections.iter().any(|&(seen, _)| seen == id) {
            return Err(SmoreError::corrupt(section_name(id), "duplicate section"));
        }
        sections.push((id, payload));
    }
    if table.remaining() != 0 {
        return Err(SmoreError::corrupt(
            "container",
            format!("{} trailing bytes after the last section", table.remaining()),
        ));
    }
    Ok((kind, sections))
}

/// Looks up a required section, rejecting the artifact when it is absent.
/// The reader's decode errors name the section.
fn require<'a>(sections: &[Section<'a>], id: u32) -> Result<WireReader<'a>> {
    sections
        .iter()
        .find(|&&(sid, _)| sid == id)
        .map(|&(_, payload)| WireReader::new(payload, section_name(id)))
        .ok_or_else(|| SmoreError::corrupt(section_name(id), "required section missing"))
}

/// Rejects any section id outside `allowed` — the forward-compatibility
/// refusal: a file carrying sections this build does not understand was
/// written by a different (likely newer) writer and must not be misparsed.
fn reject_unknown(sections: &[Section<'_>], allowed: &[u32]) -> Result<()> {
    for &(id, _) in sections {
        if !allowed.contains(&id) {
            return Err(SmoreError::corrupt(
                "container",
                format!("unknown section id {id} (written by a newer format version?)"),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Shared section codecs
// ---------------------------------------------------------------------------

fn encode_config(config: &SmoreConfig) -> Vec<u8> {
    let mut p = WireWriter::new();
    for v in [
        config.dim,
        config.channels,
        config.num_classes,
        config.ngram,
        config.levels,
        config.epochs,
        config.threads,
    ] {
        p.u64(v as u64);
    }
    p.u64(config.seed);
    p.f32(config.delta_star);
    p.f32(config.learning_rate);
    p.f32(config.weight_power);
    p.u8(match config.quantization {
        Quantization::Interpolate => 0,
        Quantization::LevelFlip => 1,
    });
    p.u8(match config.domain_init {
        DomainInit::Shared => 0,
        DomainInit::Independent => 1,
    });
    p.u8(config.center as u8);
    p.u8(config.standardize as u8);
    match &config.range {
        RangeMode::FitGlobal => p.u8(0),
        RangeMode::PerWindow => p.u8(1),
        RangeMode::Fixed(ranges) => {
            p.u8(2);
            write_pairs(&mut p, ranges);
        }
    }
    p.into_bytes()
}

fn decode_config(mut c: WireReader<'_>) -> Result<SmoreConfig> {
    let dim = c.len("dim")?;
    let channels = c.len("channels")?;
    let num_classes = c.len("num_classes")?;
    let ngram = c.len("ngram")?;
    let levels = c.len("levels")?;
    let epochs = c.len("epochs")?;
    let threads = c.len("threads")?;
    let seed = c.u64()?;
    let delta_star = c.f32()?;
    let learning_rate = c.f32()?;
    let weight_power = c.f32()?;
    let quantization = match c.u8()? {
        0 => Quantization::Interpolate,
        1 => Quantization::LevelFlip,
        other => return Err(c.malformed(format!("unknown quantization tag {other}")).into()),
    };
    let domain_init = match c.u8()? {
        0 => DomainInit::Shared,
        1 => DomainInit::Independent,
        other => return Err(c.malformed(format!("unknown domain_init tag {other}")).into()),
    };
    let center = c.u8()? != 0;
    let standardize = c.u8()? != 0;
    let range = match c.u8()? {
        0 => RangeMode::FitGlobal,
        1 => RangeMode::PerWindow,
        2 => {
            let n = c.len("fixed range")?;
            let flat =
                c.f32s(n.checked_mul(2).ok_or_else(|| c.malformed("range count overflows"))?)?;
            RangeMode::Fixed(pairs(&flat))
        }
        other => return Err(c.malformed(format!("unknown range mode tag {other}")).into()),
    };
    let config = SmoreConfig {
        dim,
        channels,
        num_classes,
        ngram,
        levels,
        quantization,
        range,
        delta_star,
        learning_rate,
        epochs,
        center,
        standardize,
        domain_init,
        weight_power,
        threads,
        seed,
    };
    c.finish()?;
    config
        .validate()
        .map_err(|e| SmoreError::corrupt("config", format!("decoded config is invalid: {e}")))?;
    Ok(config)
}

/// Writes a `u64` count followed by the `(lo, hi)` pairs as `f32`s.
fn write_pairs(p: &mut WireWriter, ranges: &[(f32, f32)]) {
    p.u64(ranges.len() as u64);
    for &(lo, hi) in ranges {
        p.f32(lo);
        p.f32(hi);
    }
}

/// Writes a `u64` count followed by the values.
fn write_f32s(p: &mut WireWriter, values: &[f32]) {
    p.u64(values.len() as u64);
    p.f32s(values);
}

fn encode_scaler(scaler: &ChannelStats) -> Vec<u8> {
    let mut p = WireWriter::new();
    write_f32s(&mut p, &scaler.mean);
    p.f32s(&scaler.std);
    p.into_bytes()
}

fn decode_scaler(mut c: WireReader<'_>, channels: usize) -> Result<ChannelStats> {
    let n = c.len("channel")?;
    if n != channels {
        return Err(c.malformed(format!("{n} channel statistics for {channels} channels")).into());
    }
    let mean = c.f32s(n)?;
    let std = c.f32s(n)?;
    c.finish()?;
    Ok(ChannelStats { mean, std })
}

fn encode_mean(mean: &[f32]) -> Vec<u8> {
    let mut p = WireWriter::new();
    write_f32s(&mut p, mean);
    p.into_bytes()
}

fn decode_mean(mut c: WireReader<'_>, dim: usize) -> Result<Vec<f32>> {
    let n = c.len("mean")?;
    if n != dim {
        return Err(c.malformed(format!("centring mean of dim {n} for a dim-{dim} model")).into());
    }
    let mean = c.f32s(n)?;
    c.finish()?;
    Ok(mean)
}

/// Writes a `u64` count followed by one `u64` per tag.
fn write_tags(p: &mut WireWriter, tags: &[usize]) {
    p.u64(tags.len() as u64);
    for &t in tags {
        p.u64(t as u64);
    }
}

/// Reads `n` `u64` tag values.
fn read_tags(c: &mut WireReader<'_>, n: usize, what: &str) -> WireResult<Vec<usize>> {
    (0..n).map(|_| c.len(what)).collect()
}

fn encode_tags(tags: &[usize]) -> Vec<u8> {
    let mut p = WireWriter::new();
    write_tags(&mut p, tags);
    p.into_bytes()
}

fn decode_tags(mut c: WireReader<'_>, expected: usize) -> Result<Vec<usize>> {
    let n = c.len("tag")?;
    if n != expected {
        return Err(c.malformed(format!("{n} domain tags for {expected} domains")).into());
    }
    let tags = read_tags(&mut c, n, "tag value")?;
    c.finish()?;
    let mut seen = tags.clone();
    seen.sort_unstable();
    seen.dedup();
    if seen.len() != tags.len() {
        return Err(SmoreError::corrupt("domain_tags", "duplicate domain tag"));
    }
    Ok(tags)
}

fn encode_value_range(range: &ValueRange) -> Vec<u8> {
    let mut p = WireWriter::new();
    match range {
        ValueRange::PerWindow => p.u8(0),
        ValueRange::Global(ranges) => {
            p.u8(1);
            write_pairs(&mut p, ranges);
        }
    }
    p.into_bytes()
}

fn decode_value_range(mut c: WireReader<'_>, sensors: usize) -> Result<ValueRange> {
    let range = match c.u8()? {
        0 => ValueRange::PerWindow,
        1 => {
            let n = c.len("range")?;
            if n != sensors {
                return Err(c.malformed(format!("{n} value ranges for {sensors} sensors")).into());
            }
            let flat = c.f32s(2 * n)?;
            ValueRange::Global(pairs(&flat))
        }
        other => return Err(c.malformed(format!("unknown value range tag {other}")).into()),
    };
    c.finish()?;
    Ok(range)
}

/// The exact [`EncoderConfig`] a model's encoder was built with: derived
/// from the model config the same way [`SmoreConfig::encoder_config`]
/// derives it, with the *fitted* value range substituted.
fn encoder_config_with_range(config: &SmoreConfig, range: ValueRange) -> EncoderConfig {
    EncoderConfig {
        dim: config.dim,
        sensors: config.channels,
        ngram: config.ngram,
        levels: config.levels,
        quantization: config.quantization,
        range,
        normalize: true,
        seed: config.seed,
    }
}

/// Reads one packed hypervector of `dim` bits.
fn read_vector(c: &mut WireReader<'_>, dim: usize) -> Result<PackedHypervector> {
    let words = c.u64s(smore_packed::words_for(dim))?;
    PackedHypervector::from_words(dim, words).map_err(|e| c.malformed(e.to_string()).into())
}

fn encode_packed_vectors(vectors: &[PackedHypervector]) -> Vec<u8> {
    let mut p = WireWriter::new();
    p.u64(vectors.len() as u64);
    for v in vectors {
        p.u64s(v.words());
    }
    p.into_bytes()
}

fn decode_packed_vectors(
    c: &mut WireReader<'_>,
    count: usize,
    dim: usize,
) -> Result<Vec<PackedHypervector>> {
    // Guard the collect's pre-allocation: `count` vectors need `count ×
    // words_per × 8` payload bytes, which must already be present.
    let words_per = smore_packed::words_for(dim);
    let remaining = c.remaining();
    if count.checked_mul(words_per.max(1) * 8).is_none_or(|need| need > remaining) {
        return Err(c
            .malformed(format!("{count} packed vectors exceed the {remaining}-byte payload"))
            .into());
    }
    (0..count).map(|_| read_vector(c, dim)).collect()
}

fn encode_codebooks(codebooks: &[Vec<PackedHypervector>]) -> Vec<u8> {
    let mut p = WireWriter::new();
    p.u64(codebooks.len() as u64);
    p.u64(codebooks.first().map_or(0, Vec::len) as u64);
    for v in codebooks.iter().flatten() {
        p.u64s(v.words());
    }
    p.into_bytes()
}

fn decode_codebooks(mut c: WireReader<'_>, dim: usize) -> Result<Vec<Vec<PackedHypervector>>> {
    let sensors = c.count_u64("sensor", 1)?;
    let levels = c.len("level")?;
    let books = (0..sensors)
        .map(|_| decode_packed_vectors(&mut c, levels, dim))
        .collect::<Result<Vec<_>>>()?;
    c.finish()?;
    Ok(books)
}

/// Writes one domain's residual class hypervectors: per class its plane
/// count, then per plane its scale and sign words. Quantized models and
/// tenant deltas store their domains' classes alike.
fn write_classes(p: &mut WireWriter, classes: &[ResidualPacked]) {
    for class in classes {
        p.u8(class.num_planes() as u8);
        for (alpha, plane) in class.planes() {
            p.f32(*alpha);
            p.u64s(plane.words());
        }
    }
}

/// Reads the `num_classes` residual class hypervectors of one domain, as
/// [`write_classes`] wrote them.
fn read_classes(
    c: &mut WireReader<'_>,
    num_classes: usize,
    dim: usize,
) -> Result<Vec<ResidualPacked>> {
    let mut classes = Vec::with_capacity(num_classes);
    for _ in 0..num_classes {
        let planes = c.u8()? as usize;
        if planes == 0 {
            return Err(c.malformed("class hypervector with zero residual planes").into());
        }
        let planes = (0..planes)
            .map(|_| Ok((c.f32()?, read_vector(c, dim)?)))
            .collect::<Result<Vec<_>>>()?;
        classes.push(ResidualPacked::from_planes(planes).map_err(|e| c.malformed(e.to_string()))?);
    }
    Ok(classes)
}

// ---------------------------------------------------------------------------
// QuantizedSmore
// ---------------------------------------------------------------------------

fn quantized_to_bytes(model: &QuantizedSmore) -> Vec<u8> {
    let mut classes_payload = WireWriter::new();
    classes_payload.u64(model.domain_classes.len() as u64);
    classes_payload.u64(model.config.num_classes as u64);
    for domain in &model.domain_classes {
        write_classes(&mut classes_payload, domain);
    }
    let mut gram_payload = WireWriter::new();
    gram_payload.u64(model.class_gram.len() as u64);
    gram_payload.u64(model.domain_classes.len() as u64);
    for gram in &model.class_gram {
        gram_payload.f32s(gram);
    }
    let sections = vec![
        (SEC_CONFIG, encode_config(&model.config)),
        (SEC_SCALER, encode_scaler(&model.scaler)),
        (SEC_CENTERING, encode_mean(&model.mean)),
        (SEC_DOMAIN_TAGS, encode_tags(&model.domain_tags)),
        (SEC_ENCODER_RANGE, encode_value_range(&model.encoder.config().range)),
        (SEC_PACKED_DESCRIPTORS, encode_packed_vectors(&model.descriptors)),
        (SEC_PACKED_CLASSES, classes_payload.into_bytes()),
        (SEC_CLASS_GRAM, gram_payload.into_bytes()),
        (SEC_PACKED_CODEBOOKS, encode_codebooks(model.encoder.codebooks())),
        (SEC_PACKED_CODEBOOKS_ROT, encode_codebooks(model.encoder.codebooks_rot())),
        (SEC_PACKED_SIGNATURES, encode_packed_vectors(model.encoder.signatures())),
    ];
    write_container(ArtifactKind::Quantized, &sections)
}

fn quantized_from_bytes(bytes: &[u8]) -> Result<QuantizedSmore> {
    let (kind, sections) = parse_container(bytes)?;
    if kind != ArtifactKind::Quantized {
        return Err(SmoreError::corrupt(
            "header",
            "artifact holds a dense model; load it with Smore::load (and quantize)",
        ));
    }
    reject_unknown(
        &sections,
        &[
            SEC_CONFIG,
            SEC_SCALER,
            SEC_CENTERING,
            SEC_DOMAIN_TAGS,
            SEC_ENCODER_RANGE,
            SEC_PACKED_DESCRIPTORS,
            SEC_PACKED_CLASSES,
            SEC_CLASS_GRAM,
            SEC_PACKED_CODEBOOKS,
            SEC_PACKED_CODEBOOKS_ROT,
            SEC_PACKED_SIGNATURES,
        ],
    )?;

    let config = decode_config(require(&sections, SEC_CONFIG)?)?;
    let dim = config.dim;
    let scaler = decode_scaler(require(&sections, SEC_SCALER)?, config.channels)?;
    let mean = decode_mean(require(&sections, SEC_CENTERING)?, dim)?;

    // Classes: [domain][class] residual planes. Every domain carries at
    // least one plane-count byte per class, which bounds the count (and
    // therefore every allocation sized by it) by the payload length.
    let mut c = require(&sections, SEC_PACKED_CLASSES)?;
    let num_domains = c.count_u64("domain", config.num_classes.max(1))?;
    if num_domains < 2 {
        return Err(c.malformed(format!("{num_domains} domains; SMORE serves K >= 2")).into());
    }
    let num_classes = c.len("class")?;
    if num_classes != config.num_classes {
        return Err(c
            .malformed(format!(
                "{num_classes} classes per domain for a {}-class config",
                config.num_classes
            ))
            .into());
    }
    let domain_classes = (0..num_domains)
        .map(|_| read_classes(&mut c, num_classes, dim))
        .collect::<Result<Vec<_>>>()?;
    c.finish()?;

    // Per-class Gram matrices.
    let mut c = require(&sections, SEC_CLASS_GRAM)?;
    let gram_classes = c.len("class")?;
    let gram_k = c.len("domain")?;
    if gram_classes != num_classes || gram_k != num_domains {
        return Err(c
            .malformed(format!(
                "gram shaped ({gram_classes} classes, K={gram_k}) for ({num_classes}, \
                 K={num_domains})"
            ))
            .into());
    }
    let class_gram =
        (0..gram_classes).map(|_| c.f32s(gram_k * gram_k)).collect::<WireResult<Vec<_>>>()?;
    c.finish()?;

    // Descriptors.
    let mut c = require(&sections, SEC_PACKED_DESCRIPTORS)?;
    let n = c.len("descriptor")?;
    if n != num_domains {
        return Err(c.malformed(format!("{n} descriptors for {num_domains} domains")).into());
    }
    let descriptors = decode_packed_vectors(&mut c, n, dim)?;
    c.finish()?;

    let domain_tags = decode_tags(require(&sections, SEC_DOMAIN_TAGS)?, num_domains)?;

    // Encoder: stored codebooks verbatim (bit-exactness), validated by
    // PackedNgramEncoder::from_parts.
    let range = decode_value_range(require(&sections, SEC_ENCODER_RANGE)?, config.channels)?;
    let codebooks = decode_codebooks(require(&sections, SEC_PACKED_CODEBOOKS)?, dim)?;
    let codebooks_rot = decode_codebooks(require(&sections, SEC_PACKED_CODEBOOKS_ROT)?, dim)?;
    let mut c = require(&sections, SEC_PACKED_SIGNATURES)?;
    let n = c.len("signature")?;
    let signatures = decode_packed_vectors(&mut c, n, dim)?;
    c.finish()?;
    let encoder = PackedNgramEncoder::from_parts(
        encoder_config_with_range(&config, range),
        codebooks,
        codebooks_rot,
        signatures,
    )
    .map_err(|e| SmoreError::corrupt("packed_codebooks", e.to_string()))?;

    Ok(QuantizedSmore {
        config,
        scaler,
        encoder,
        mean,
        domain_classes,
        descriptors,
        class_gram,
        domain_tags,
    })
}

impl QuantizedSmore {
    /// Serializes the complete serving state to `.smore` artifact bytes.
    /// The encoding is canonical: the same model always produces the same
    /// bytes (locked by the golden-fixture test).
    pub fn to_artifact_bytes(&self) -> Vec<u8> {
        quantized_to_bytes(self)
    }

    /// Reconstructs a serving model from `.smore` artifact bytes. The
    /// loaded model is **bit-identical** in behaviour to the one that was
    /// saved: every prediction, score and similarity reproduces exactly
    /// (property-tested in `tests/artifact.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::CorruptArtifact`] for anything other than a
    /// well-formed quantized artifact of the supported
    /// [`FORMAT_VERSION`] — wrong magic or kind, checksum mismatches,
    /// truncation, unknown sections, or payloads that decode to an
    /// inconsistent model.
    pub fn from_artifact_bytes(bytes: &[u8]) -> Result<Self> {
        quantized_from_bytes(bytes)
    }

    /// Saves the model as a `.smore` artifact file.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::Io`] when writing fails.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_artifact_bytes())
            .map_err(|e| SmoreError::io(path.display().to_string(), &e))
    }

    /// Loads a model from a `.smore` artifact file.
    ///
    /// # Errors
    ///
    /// [`SmoreError::Io`] when reading fails; otherwise the conditions of
    /// [`from_artifact_bytes`](Self::from_artifact_bytes).
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| SmoreError::io(path.display().to_string(), &e))?;
        Self::from_artifact_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Dense Smore
// ---------------------------------------------------------------------------

fn dense_to_bytes(model: &Smore, fitted: &Fitted) -> Vec<u8> {
    let mut models_payload = WireWriter::new();
    models_payload.u64(fitted.domain_models.len() as u64);
    for m in fitted.domain_models.iter() {
        models_payload.f32(m.config().learning_rate);
        models_payload.u64(m.config().epochs as u64);
        let hvs = m.class_hypervectors();
        models_payload.u64(hvs.rows() as u64);
        models_payload.u64(hvs.cols() as u64);
        models_payload.f32s(hvs.as_slice());
    }
    let descriptors = fitted.descriptors.as_matrix();
    let mut desc_payload = WireWriter::new();
    desc_payload.u64(descriptors.rows() as u64);
    desc_payload.u64(descriptors.cols() as u64);
    desc_payload.f32s(descriptors.as_slice());

    let sections = vec![
        (SEC_CONFIG, encode_config(&model.config)),
        (SEC_SCALER, encode_scaler(&fitted.scaler)),
        (SEC_CENTERING, encode_mean(fitted.centerer.mean())),
        (SEC_DOMAIN_TAGS, encode_tags(&fitted.domain_tags)),
        (SEC_ENCODER_RANGE, encode_value_range(&model.encoder.config().range)),
        (SEC_DENSE_DESCRIPTORS, desc_payload.into_bytes()),
        (SEC_DOMAIN_MODELS, models_payload.into_bytes()),
    ];
    write_container(ArtifactKind::Dense, &sections)
}

fn dense_from_bytes(bytes: &[u8]) -> Result<Smore> {
    let (kind, sections) = parse_container(bytes)?;
    if kind != ArtifactKind::Dense {
        return Err(SmoreError::corrupt(
            "header",
            "artifact holds a quantized model; load it with QuantizedSmore::load",
        ));
    }
    reject_unknown(
        &sections,
        &[
            SEC_CONFIG,
            SEC_SCALER,
            SEC_CENTERING,
            SEC_DOMAIN_TAGS,
            SEC_ENCODER_RANGE,
            SEC_DENSE_DESCRIPTORS,
            SEC_DOMAIN_MODELS,
        ],
    )?;

    let config = decode_config(require(&sections, SEC_CONFIG)?)?;
    let scaler = decode_scaler(require(&sections, SEC_SCALER)?, config.channels)?;
    let mean = decode_mean(require(&sections, SEC_CENTERING)?, config.dim)?;

    // Every model carries at least its 28-byte fixed header (lr, epochs,
    // rows, cols), bounding the count before any allocation.
    let mut c = require(&sections, SEC_DOMAIN_MODELS)?;
    let num_domains = c.count_u64("model", 28)?;
    if num_domains < 2 {
        return Err(c
            .malformed(format!("{num_domains} domain models; SMORE serves K >= 2"))
            .into());
    }
    let mut domain_models = Vec::with_capacity(num_domains);
    for _ in 0..num_domains {
        let learning_rate = c.f32()?;
        let epochs = c.len("epochs")?;
        let rows = c.len("class")?;
        let cols = c.len("dim")?;
        if rows != config.num_classes || cols != config.dim {
            return Err(c
                .malformed(format!(
                    "domain model shaped ({rows}, {cols}) for a ({}, {}) config",
                    config.num_classes, config.dim
                ))
                .into());
        }
        let data =
            c.f32s(rows.checked_mul(cols).ok_or_else(|| c.malformed("model size overflows"))?)?;
        let hvs = Matrix::from_vec(rows, cols, data).map_err(|e| c.malformed(e.to_string()))?;
        let model = HdcClassifier::from_class_hypervectors_with(hvs, learning_rate, epochs)
            .map_err(|e| c.malformed(e.to_string()))?;
        domain_models.push(model);
    }
    c.finish()?;

    let mut c = require(&sections, SEC_DENSE_DESCRIPTORS)?;
    let rows = c.len("descriptor")?;
    let cols = c.len("dim")?;
    if rows != num_domains || cols != config.dim {
        return Err(c
            .malformed(format!(
                "descriptors shaped ({rows}, {cols}) for K={num_domains}, dim {}",
                config.dim
            ))
            .into());
    }
    let data = c.f32s(rows.checked_mul(cols).ok_or_else(|| c.malformed("size overflows"))?)?;
    let descriptors = DomainDescriptors::from_matrix(
        Matrix::from_vec(rows, cols, data).map_err(|e| c.malformed(e.to_string()))?,
    );
    c.finish()?;

    let domain_tags = decode_tags(require(&sections, SEC_DOMAIN_TAGS)?, num_domains)?;
    let range = decode_value_range(require(&sections, SEC_ENCODER_RANGE)?, config.channels)?;

    // Dense codebooks are not stored: construction is deterministic in the
    // configuration seed, so rebuilding with the fitted range reproduces
    // the original encoder exactly.
    let encoder = MultiSensorEncoder::new(encoder_config_with_range(&config, range))
        .map_err(|e| SmoreError::corrupt("encoder_range", e.to_string()))?;

    Ok(Smore {
        config,
        encoder,
        fitted: Some(Fitted {
            scaler,
            centerer: Centerer::from_mean(mean),
            domain_models,
            descriptors,
            domain_tags,
        }),
    })
}

// ---------------------------------------------------------------------------
// SnapshotDelta (DeltaV1)
// ---------------------------------------------------------------------------

fn delta_to_bytes(delta: &SnapshotDelta) -> Vec<u8> {
    let mut meta = WireWriter::new();
    for v in [delta.dim, delta.num_classes, delta.base_domains] {
        meta.u64(v as u64);
    }
    write_tags(&mut meta, &delta.base_tags);
    meta.u64(delta.meta.next_tag as u64);
    meta.u64(delta.meta.steps as u64);

    let mut domains = WireWriter::new();
    domains.u64(delta.domains.len() as u64);
    for domain in &delta.domains {
        domains.u64(domain.tag as u64);
        domains.u64s(domain.descriptor.words());
        write_classes(&mut domains, &domain.classes);
        for row in &domain.gram_rows {
            domains.f32s(row);
        }
    }

    let mut records = WireWriter::new();
    records.u64(delta.meta.records.len() as u64);
    for r in &delta.meta.records {
        for v in [r.tag, r.step, r.enrolled_windows, r.oracle_labelled] {
            records.u64(v as u64);
        }
        records.u64(r.enroll_nanos);
        records.u64(r.swap_nanos);
    }

    let sections = vec![
        (SEC_DELTA_META, meta.into_bytes()),
        (SEC_DELTA_DOMAINS, domains.into_bytes()),
        (SEC_DELTA_RECORDS, records.into_bytes()),
    ];
    write_container(ArtifactKind::Delta, &sections)
}

fn delta_from_bytes(bytes: &[u8]) -> Result<SnapshotDelta> {
    let (kind, sections) = parse_container(bytes)?;
    if kind != ArtifactKind::Delta {
        return Err(SmoreError::corrupt(
            "header",
            "artifact is not a tenant delta; quantized models load with QuantizedSmore::load, \
             dense models with Smore::load",
        ));
    }
    reject_unknown(&sections, &[SEC_DELTA_META, SEC_DELTA_DOMAINS, SEC_DELTA_RECORDS])?;

    let mut c = require(&sections, SEC_DELTA_META)?;
    let dim = c.len("dim")?;
    let num_classes = c.len("num_classes")?;
    let base_domains = c.len("base_domains")?;
    if dim == 0 || num_classes == 0 || base_domains < 2 {
        return Err(c
            .malformed(format!(
                "delta over dim={dim}, classes={num_classes}, K={base_domains}; SMORE serves \
                 dim >= 1, classes >= 1, K >= 2"
            ))
            .into());
    }
    let n_tags = c.count_u64("base tag", 8)?;
    if n_tags != base_domains {
        return Err(c
            .malformed(format!("{n_tags} base tags for {base_domains} base domains"))
            .into());
    }
    let base_tags = read_tags(&mut c, n_tags, "base tag value")?;
    let next_tag = c.len("next_tag")?;
    let steps = c.len("steps")?;
    c.finish()?;

    // Delta domains: each carries at least its tag, its packed descriptor
    // and one plane-count byte per class — bounding the count (and every
    // allocation sized by it) by the payload length. The sum saturates, so
    // a crafted dim or class count is refused rather than overflowing.
    let words_per = smore_packed::words_for(dim);
    let mut c = require(&sections, SEC_DELTA_DOMAINS)?;
    let min_domain_bytes =
        words_per.saturating_mul(8).saturating_add(8).saturating_add(num_classes);
    let num_domains = c.count_u64("delta domain", min_domain_bytes)?;
    let mut domains: Vec<DeltaDomain> = Vec::with_capacity(num_domains);
    for i in 0..num_domains {
        let tag = c.len("tag")?;
        if base_tags.contains(&tag) || domains.iter().any(|d| d.tag == tag) {
            return Err(c.malformed(format!("duplicate domain tag {tag}")).into());
        }
        let descriptor = read_vector(&mut c, dim)?;
        let classes = read_classes(&mut c, num_classes, dim)?;
        // Growth row `i` holds one dot per earlier domain (base + prior
        // deltas) plus the self-dot.
        let row_len = base_domains + i + 1;
        let gram_rows =
            (0..num_classes).map(|_| c.f32s(row_len)).collect::<WireResult<Vec<Vec<f32>>>>()?;
        domains.push(DeltaDomain { tag, classes, descriptor, gram_rows });
    }
    c.finish()?;

    let mut c = require(&sections, SEC_DELTA_RECORDS)?;
    let n_records = c.count_u64("enrolment record", 48)?;
    let records = (0..n_records)
        .map(|_| {
            Ok(DeltaEnrollmentRecord {
                tag: c.len("record tag")?,
                step: c.len("record step")?,
                enrolled_windows: c.len("record windows")?,
                oracle_labelled: c.len("record oracle count")?,
                enroll_nanos: c.u64()?,
                swap_nanos: c.u64()?,
            })
        })
        .collect::<WireResult<Vec<_>>>()?;
    c.finish()?;

    Ok(SnapshotDelta {
        base_domains,
        dim,
        num_classes,
        base_tags,
        domains,
        meta: DeltaMeta { next_tag, steps, records },
    })
}

impl SnapshotDelta {
    /// Serializes the delta to `DeltaV1` `.smore` artifact bytes — the
    /// tiny per-tenant artifact the eviction layer archives. The encoding
    /// is canonical: the same delta always produces the same bytes.
    pub fn to_artifact_bytes(&self) -> Vec<u8> {
        delta_to_bytes(self)
    }

    /// Reconstructs a delta from `DeltaV1` artifact bytes. Chaining the
    /// result onto the base it was built over (validated by
    /// [`SnapshotDelta::matches_base`] /
    /// [`crate::DeltaSmore::new`]) serves **bit-identically** to the
    /// delta that was saved.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::CorruptArtifact`] for anything other than a
    /// well-formed delta artifact of the supported [`FORMAT_VERSION`] —
    /// wrong magic or kind, checksum mismatches, truncation, unknown or
    /// duplicate sections, or payloads that decode inconsistently.
    pub fn from_artifact_bytes(bytes: &[u8]) -> Result<Self> {
        delta_from_bytes(bytes)
    }
}

impl Smore {
    /// Serializes the fitted dense model to `.smore` artifact bytes — the
    /// form that can *resume adaptation* after loading (enrol new domains,
    /// re-quantize, keep training).
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::NotFitted`] before training.
    pub fn to_artifact_bytes(&self) -> Result<Vec<u8>> {
        let fitted = self.fitted.as_ref().ok_or(SmoreError::NotFitted)?;
        Ok(dense_to_bytes(self, fitted))
    }

    /// Reconstructs a fitted dense model from `.smore` artifact bytes.
    /// The encoder is rebuilt deterministically from the stored
    /// configuration, so the loaded model's predictions equal the saved
    /// model's exactly.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::CorruptArtifact`] for anything other than a
    /// well-formed dense artifact of the supported [`FORMAT_VERSION`].
    pub fn from_artifact_bytes(bytes: &[u8]) -> Result<Self> {
        dense_from_bytes(bytes)
    }

    /// Saves the fitted model as a `.smore` artifact file.
    ///
    /// # Errors
    ///
    /// [`SmoreError::NotFitted`] before training; [`SmoreError::Io`] when
    /// writing fails.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_artifact_bytes()?)
            .map_err(|e| SmoreError::io(path.display().to_string(), &e))
    }

    /// Loads a fitted model from a `.smore` artifact file.
    ///
    /// # Errors
    ///
    /// [`SmoreError::Io`] when reading fails; otherwise the conditions of
    /// [`from_artifact_bytes`](Self::from_artifact_bytes).
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| SmoreError::io(path.display().to_string(), &e))?;
        Self::from_artifact_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_of_validates_the_header() {
        assert!(matches!(kind_of(b"short"), Err(SmoreError::CorruptArtifact { .. })));
        let mut bytes = write_container(ArtifactKind::Quantized, &[]);
        assert_eq!(kind_of(&bytes).unwrap(), ArtifactKind::Quantized);
        bytes[0] ^= 0xFF;
        assert!(kind_of(&bytes).is_err(), "bad magic");
        let mut bytes = write_container(ArtifactKind::Dense, &[]);
        bytes[8] = 99; // future version
        let err = kind_of(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let mut bytes = write_container(ArtifactKind::Dense, &[]);
        bytes[10] = 7; // unknown kind
        assert!(kind_of(&bytes).is_err());
    }

    #[test]
    fn container_rejects_tampering() {
        let sections = vec![(SEC_CONFIG, vec![1u8, 2, 3]), (SEC_SCALER, vec![9u8; 40])];
        let bytes = write_container(ArtifactKind::Dense, &sections);
        let (kind, parsed) = parse_container(&bytes).unwrap();
        assert_eq!(kind, ArtifactKind::Dense);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], (SEC_CONFIG, &[1u8, 2, 3][..]));

        // Truncation anywhere in the body fails cleanly.
        for cut in [bytes.len() - 1, bytes.len() - 20, 17, 16] {
            assert!(
                matches!(parse_container(&bytes[..cut]), Err(SmoreError::CorruptArtifact { .. })),
                "cut at {cut}"
            );
        }
        // A payload bit flip trips the section checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        let err = parse_container(&flipped).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(parse_container(&padded).is_err());
        // Duplicate sections are rejected.
        let dup = write_container(
            ArtifactKind::Dense,
            &[(SEC_CONFIG, vec![1u8]), (SEC_CONFIG, vec![2u8])],
        );
        let err = parse_container(&dup).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        // A section length whose end overflows the address space is a
        // truncation, not an arithmetic overflow.
        let mut huge = bytes.clone();
        huge[HEADER_LEN + 8..HEADER_LEN + 16].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
        assert!(matches!(parse_container(&huge), Err(SmoreError::CorruptArtifact { .. })));
    }

    #[test]
    fn unknown_sections_are_refused() {
        let bytes = write_container(ArtifactKind::Quantized, &[(999, vec![0u8; 4])]);
        let (_, sections) = parse_container(&bytes).unwrap();
        let err = reject_unknown(&sections, &[SEC_CONFIG]).unwrap_err();
        assert!(err.to_string().contains("unknown section id 999"), "{err}");
    }
}
