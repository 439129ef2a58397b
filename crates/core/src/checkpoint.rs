//! Model checkpointing: save/load trained weights to disk using the
//! federated wire format, so a fine-tuned global model can be shipped to
//! sites or resumed later (the "obtaining optimal global models" output of
//! the paper's pipeline, Fig. 1).
//!
//! Writes go through `clinfl_flare::checkpoint`'s atomic writer (tmp
//! file then rename, CRC trailer), so a crash mid-save can never
//! truncate a previously good `.cfw`, and loads verify the trailer (a
//! file without one is refused).

use clinfl_flare::checkpoint::{load_weights_file, save_weights_file};
use clinfl_flare::{FlareError, Weights};
use std::path::Path;

pub use clinfl_flare::checkpoint::RunCheckpoint;

/// Saves weights to `path` in the framed wire format (`.cfw`),
/// atomically and with a CRC trailer.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save_weights(path: impl AsRef<Path>, weights: &Weights) -> Result<(), FlareError> {
    save_weights_file(path, weights)
}

/// Loads weights previously written by [`save_weights`], verifying the
/// CRC trailer when present.
///
/// # Errors
///
/// Propagates I/O failures, CRC mismatches, and codec errors (truncated /
/// corrupt file).
pub fn load_weights(path: impl AsRef<Path>) -> Result<Weights, FlareError> {
    load_weights_file(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinfl_flare::WeightTensor;

    #[test]
    fn roundtrip_through_disk() {
        let mut w = Weights::new();
        w.insert(
            "enc.w".into(),
            WeightTensor::new(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]),
        );
        let path = std::env::temp_dir().join(format!("clinfl-ckpt-{}.cfw", std::process::id()));
        save_weights(&path, &w).unwrap();
        let back = load_weights(&path).unwrap();
        assert_eq!(back, w);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_file_rejected() {
        let path = std::env::temp_dir().join(format!("clinfl-bad-{}.cfw", std::process::id()));
        std::fs::write(&path, b"not a checkpoint").unwrap();
        assert!(load_weights(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_under_crc_trailer_rejected() {
        let mut w = Weights::new();
        w.insert("p".into(), WeightTensor::new(vec![4], vec![1., 2., 3., 4.]));
        let path = std::env::temp_dir().join(format!("clinfl-flip-{}.cfw", std::process::id()));
        save_weights(&path, &w).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last_payload = bytes.len() - 9; // inside the body, before the trailer
        bytes[last_payload] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_weights(&path).unwrap_err();
        assert!(
            err.to_string().contains("CRC"),
            "expected a CRC error, got: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_weights("/definitely/not/here.cfw"),
            Err(FlareError::Io(_))
        ));
    }
}
