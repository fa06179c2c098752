//! Property test for the bounds-proven stage loop: random affine kernel
//! stages, run through `KernelStage::apply_view`/`apply_in_place`, must
//! equal a checked replay bit for bit. The replay walks the iteration
//! space with `for_each_iteration`, applies `Codelet::apply` and
//! multiplies the twiddles explicitly, with every index checked. The
//! stages cover loop depths 0–5, random offsets, loop and slot strides,
//! lane widths ν ∈ {1, 2, 4} where the vectorize preconditions hold,
//! twiddles on load and on store switched independently, in-place runs
//! where `in_place()` allows them, fused maps on scalar stages, and
//! buffers that end exactly at the last element the stage reaches. Run
//! in a debug build, the loop also asserts each raw index it uses.

use spiral_codegen::codelet::Codelet;
use spiral_codegen::stage::{KernelStage, LoopDim, SrcView};
use spiral_codegen::vectorize::vectorize_stage;
use spiral_spl::cplx::Cplx;
use std::sync::Arc;

/// xorshift64: a fixed, dependency-free stream of cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % n as u64).expect("below a usize")
    }
    fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }
    fn cplx(&mut self) -> Cplx {
        let mut unit = || (self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        Cplx::new(unit(), unit())
    }
    fn vec(&mut self, n: usize) -> Vec<Cplx> {
        (0..n).map(|_| self.cplx()).collect()
    }
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Strides of one side: the dimensions with a count above 1 laid out in
/// a random order as a mixed radix with random gaps, so the affine index
/// is injective. Slot `c` is the last dimension. With ν > 1 the
/// innermost loop comes first at stride 1, so every other stride is a
/// multiple of its count and thus of ν.
fn layout(rng: &mut Rng, counts: &[usize], c: usize, nu: usize) -> Vec<usize> {
    let mut dims: Vec<usize> = (0..=counts.len()).collect();
    let lane = counts.len().checked_sub(1).filter(|_| nu > 1);
    dims.retain(|&d| Some(d) != lane);
    rng.shuffle(&mut dims);
    if let Some(lane) = lane {
        dims.insert(0, lane);
    }
    let count = |d: usize| if d == counts.len() { c } else { counts[d] };
    let mut strides = vec![0; counts.len() + 1];
    let mut next = 1;
    for d in dims {
        if count(d) == 1 {
            // A one-iteration loop moves no index: any ν-granular
            // stride will do.
            strides[d] = nu * rng.below(100 / nu);
            continue;
        }
        if Some(d) != lane {
            next *= [1, 1, 2][rng.below(3)];
        }
        strides[d] = next;
        next *= count(d);
    }
    strides
}

/// A random permutation of `0..len`.
fn permutation(rng: &mut Rng, len: usize) -> Arc<Vec<u32>> {
    let mut p: Vec<u32> = (0..u32::try_from(len).expect("a u32 length")).collect();
    rng.shuffle(&mut p);
    Arc::new(p)
}

/// A buffer length that reaches `end`: exactly `end` half the time.
fn length(rng: &mut Rng, end: usize) -> usize {
    end + if rng.chance(1, 2) { 0 } else { rng.below(5) }
}

struct Case {
    stage: KernelStage,
    in_place: bool,
    src_len: usize,
    dst_len: usize,
}

fn random_case(rng: &mut Rng) -> Case {
    let c = [1, 2, 3, 4, 5, 7, 8, 16][rng.below(8)];
    let nu = [1, 2, 4][rng.below(3)];
    let depth = if nu == 1 {
        rng.below(6)
    } else {
        1 + rng.below(5)
    };
    let mut counts: Vec<usize> = (0..depth).map(|_| 1 + rng.below(3)).collect();
    if nu > 1 {
        counts[depth - 1] = nu * (1 + rng.below(3));
    }
    let in_place = rng.chance(1, 3);
    let ins = layout(rng, &counts, c, nu);
    let outs = if in_place {
        ins.clone()
    } else {
        layout(rng, &counts, c, nu)
    };
    let in_off = nu * rng.below(9);
    let out_off = if in_place { in_off } else { nu * rng.below(9) };
    // Flat twiddle strides (innermost 1), some outer ones zeroed as
    // compaction leaves them.
    let mut tw_strides = vec![0; depth];
    let mut row = 1;
    for d in (0..depth).rev() {
        if d + 1 == depth || rng.chance(2, 3) {
            tw_strides[d] = row;
            row *= counts[d];
        }
    }
    let mut stage = KernelStage::unit(Codelet::for_size(c));
    stage.loops = (0..depth)
        .map(|d| LoopDim {
            count: counts[d],
            in_stride: ins[d],
            out_stride: outs[d],
            tw_stride: tw_strides[d],
        })
        .collect();
    (stage.in_off, stage.out_off) = (in_off, out_off);
    (stage.in_t_stride, stage.out_t_stride) = (ins[depth], outs[depth]);
    let rows = stage.twiddle_iterations();
    if rng.chance(1, 2) {
        stage.twiddle = Some(Arc::new(rng.vec(rows * c)));
    }
    if rng.chance(1, 2) {
        stage.twiddle_out = Some(Arc::new(rng.vec(rows * c)));
    }
    let (in_end, out_end) = stage.extents();
    let (src_len, dst_len) = if in_place {
        let len = length(rng, in_end.max(out_end));
        (len, len)
    } else {
        (length(rng, in_end), length(rng, out_end))
    };
    if nu == 1 && !in_place {
        if rng.chance(1, 4) {
            stage.in_map = Some(permutation(rng, src_len));
        }
        if rng.chance(1, 4) {
            stage.out_map = Some(permutation(rng, dst_len));
        }
    }
    if nu > 1 {
        assert!(vectorize_stage(&mut stage, nu), "{stage:?}");
    }
    assert!(!in_place || stage.in_place());
    Case {
        stage,
        in_place,
        src_len,
        dst_len,
    }
}

/// `dst = stage(src)` by the checked replay: the same iteration order,
/// every index checked, `Codelet::apply` and explicit twiddle products.
fn replay(k: &KernelStage, src: &[Cplx], dst: &mut [Cplx]) {
    let c = k.codelet.size();
    let mut x = vec![Cplx::ZERO; c];
    let mut y = vec![Cplx::ZERO; c];
    k.for_each_iteration(|w, in_base, out_base| {
        for (t, x) in x.iter_mut().enumerate() {
            let a = in_base + t * k.in_t_stride;
            *x = src[k.in_map.as_ref().map_or(a, |m| m[a] as usize)];
            if let Some(tw) = &k.twiddle {
                *x *= tw[w * c + t];
            }
        }
        k.codelet.apply(&x, &mut y, &mut Vec::new());
        for (t, y) in y.iter().enumerate() {
            let a = out_base + t * k.out_t_stride;
            let o = k.out_map.as_ref().map_or(a, |m| m[a] as usize);
            dst[o] = k.twiddle_out.as_ref().map_or(*y, |tw| *y * tw[w * c + t]);
        }
    });
}

fn same_bits(a: &[Cplx], b: &[Cplx]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

#[test]
fn affine_stages_match_the_checked_replay_bit_for_bit() {
    let mut rng = Rng(0x5EED_57A6_E5B0);
    let (mut exact, mut lanes, mut in_place, mut mapped) = (0, 0, 0, 0);
    for case in 0..3000 {
        let Case {
            stage,
            in_place: run_in_place,
            src_len,
            dst_len,
        } = random_case(&mut rng);
        let src = rng.vec(src_len);
        let mut want = if run_in_place {
            src.clone()
        } else {
            rng.vec(dst_len)
        };
        let mut got = want.clone();
        replay(&stage, &src, &mut want);
        if run_in_place {
            stage.apply_in_place(&mut got);
        } else {
            stage.apply_view(SrcView::Local(&src), &mut got);
        }
        assert!(
            same_bits(&got, &want),
            "case {case}: {stage:?}, source {src_len}, destination {dst_len}"
        );
        let (in_end, out_end) = stage.extents();
        exact += usize::from(in_end == src_len || out_end == dst_len);
        lanes += usize::from(stage.vec_width > 1);
        in_place += usize::from(run_in_place);
        mapped += usize::from(stage.in_map.is_some() || stage.out_map.is_some());
    }
    // The generator reaches every kind of case it is meant to cover.
    for (what, n) in [
        ("exact-fit", exact),
        ("lane", lanes),
        ("in-place", in_place),
        ("mapped", mapped),
    ] {
        assert!(n >= 100, "only {n} {what} cases");
    }
}
