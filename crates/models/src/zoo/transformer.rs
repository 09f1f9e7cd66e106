//! A decoder-only transformer block stack at one autoregressive step.
//!
//! The zoo's 2021 set (Table I/II) has no attention workloads; this
//! model opens that axis. It encodes **one token** of a GPT-style
//! decoder as the GEMMs an analytical cost model sees, parameterized by
//! the KV-cache length `kv_len` (how many past tokens the new token
//! attends over). Per-block, with hidden size `H` and `L = kv_len`:
//!
//! | Layer | GEMM shape `(k, c, m)` | Role |
//! |-------|------------------------|------|
//! | `qkv`     | `(3H, H, 1)` | fused Q/K/V projection of the new token |
//! | `score`   | `(L, H, 1)`  | attention scores `q . K^T` over the cache |
//! | `context` | `(H, L, 1)`  | context `scores . V` over the cache |
//! | `out`     | `(H, H, 1)`  | attention output projection |
//! | `ffn_up`  | `(4H, H, 1)` | FFN expansion |
//! | `ffn_down`| `(H, 4H, 1)` | FFN contraction |
//!
//! Only `score` and `context` depend on `L`, so per-token cost grows
//! linearly in the KV length — exactly the autoregressive cost curve the
//! decode-stream scenarios exercise. Every layer is stamped with
//! `seq_position = kv_len` so two cache-length variants of the stack can
//! never alias in a schedule memo even where their GEMM shapes coincide.
//!
//! Unlike the fixed Table I networks, this model is *parameterized* and
//! therefore not part of [`super::all_models`].

use crate::{DnnModel, LayerDims, LayerOp, ModelBuilder};

/// Hidden size of the decoder (a GPT-2-medium-class width that keeps
/// fast-mode scheduling snappy while the FFN GEMMs still dominate).
pub const TRANSFORMER_HIDDEN: u32 = 1024;

/// Decoder blocks in the stack.
pub const TRANSFORMER_BLOCKS: usize = 4;

/// One autoregressive decode step of a decoder-only transformer with a
/// KV cache of `kv_len` past tokens: per block, the `qkv`, `score`,
/// `context`, `out`, `ffn_up` and `ffn_down` GEMMs of one token, where
/// only `score` and `context` grow with `kv_len`.
///
/// # Panics
///
/// Panics if `kv_len` is zero.
#[must_use]
pub fn transformer_decoder(kv_len: u32) -> DnnModel {
    assert!(kv_len > 0, "a decode step attends over at least one token");
    let h = TRANSFORMER_HIDDEN;
    let mut b = ModelBuilder::new(format!("TransformerDecoder-kv{kv_len}"));
    for blk in 0..TRANSFORMER_BLOCKS {
        b = b
            .chain(
                format!("blk{blk}_qkv"),
                LayerOp::Fc,
                LayerDims::gemm(3 * h, h, 1),
            )
            .chain(
                format!("blk{blk}_score"),
                LayerOp::Fc,
                LayerDims::gemm(kv_len, h, 1),
            )
            .chain(
                format!("blk{blk}_context"),
                LayerOp::Fc,
                LayerDims::gemm(h, kv_len, 1),
            )
            .chain(
                format!("blk{blk}_out"),
                LayerOp::Fc,
                LayerDims::gemm(h, h, 1),
            )
            .chain(
                format!("blk{blk}_ffn_up"),
                LayerOp::Fc,
                LayerDims::gemm(4 * h, h, 1),
            )
            .chain(
                format!("blk{blk}_ffn_down"),
                LayerOp::Fc,
                LayerDims::gemm(h, 4 * h, 1),
            );
    }
    b.build()
        .expect("decoder stack is a valid chain")
        .map_layers(|l| l.with_seq_position(kv_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_is_all_gemms_with_six_layers_per_block() {
        let m = transformer_decoder(64);
        assert_eq!(m.num_layers(), 6 * TRANSFORMER_BLOCKS);
        for (_, l) in m.iter() {
            assert_eq!(l.op(), LayerOp::Fc);
            assert_eq!(l.seq_position(), 64);
            assert_eq!(l.density(), 1.0);
        }
    }

    #[test]
    fn only_attention_layers_grow_with_the_kv_cache() {
        let short = transformer_decoder(64);
        let long = transformer_decoder(512);
        for (id, l) in short.iter() {
            let other = long.layer(id);
            let grows = l.name().contains("score") || l.name().contains("context");
            assert_eq!(
                other.macs() > l.macs(),
                grows,
                "{}: {} vs {}",
                l.name(),
                l.macs(),
                other.macs()
            );
        }
    }

    #[test]
    fn per_token_macs_are_monotone_in_kv_length() {
        let mut prev = 0u64;
        for kv in [1u32, 16, 64, 256, 1024] {
            let macs = transformer_decoder(kv).total_macs();
            assert!(macs > prev, "kv={kv}: {macs} <= {prev}");
            prev = macs;
        }
    }

    #[test]
    fn variants_are_named_and_stamped_by_cache_length() {
        let m = transformer_decoder(128);
        assert_eq!(m.name(), "TransformerDecoder-kv128");
        assert_ne!(transformer_decoder(128), transformer_decoder(129));
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_cache_rejected() {
        let _ = transformer_decoder(0);
    }
}
