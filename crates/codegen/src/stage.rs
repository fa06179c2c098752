//! Executable stages — the loop-level IR the SPL compiler lowers to.
//!
//! A [`LocalProgram`] is a sequence of stages over a vector of some
//! dimension, each run out of place or, where it reads exactly the slots
//! it writes, in place ([`ping_pong`]). Kernel stages carry explicit
//! *gather/scatter* index maps (affine loop nests, optionally
//! post-composed with a permutation table) and an optional fused twiddle
//! multiplication — the result of the loop merging of [11]: permutations
//! and diagonals are not executed as separate passes but folded into the
//! adjacent compute loop.

use crate::codelet::{with_size, Codelet, Dft, Kernels, SizeFn};
use crate::simd::{Lane, Lanes};
use spiral_spl::cplx::Cplx;
use std::borrow::Cow;
use std::sync::Arc;

/// One loop dimension of a kernel stage's iteration space.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LoopDim {
    /// Iteration count.
    pub count: usize,
    /// Input-index stride per iteration.
    pub in_stride: usize,
    /// Output-index stride per iteration.
    pub out_stride: usize,
    /// Twiddle-iteration stride per iteration: 0 where the stage's
    /// twiddle tables do not vary along this loop.
    pub tw_stride: usize,
}

/// Apply a codelet of size `c` across a loop nest.
///
/// For every multi-index `(i_0, …, i_{d-1})` over `loops` and every slot
/// `t < c`:
/// ```text
/// in_idx  = in_map ( in_off  + Σ i_d · in_stride_d  + t · in_t_stride  )
/// out_idx = out_map( out_off + Σ i_d · out_stride_d + t · out_t_stride )
/// ```
/// where `in_map`/`out_map` are optional fused permutation tables. If
/// `twiddle` is present, input slot `t` is scaled by `twiddle[w·c + t]`
/// on load, where `w = Σ i_d · tw_stride_d` is the iteration's *twiddle
/// iteration*. Flat tables (one row per iteration, as lowering builds
/// them) have `tw_stride_d` = the product of the inner loop counts;
/// [`compact_twiddles`](KernelStage::compact_twiddles) sets the stride of
/// every outer loop the tables are invariant along to 0 and stores one
/// row per value of the loops that remain.
#[derive(Clone, Debug)]
pub struct KernelStage {
    /// The straight-line kernel applied at each iteration.
    pub codelet: Codelet,
    /// Outer loop nest (outermost first).
    pub loops: Vec<LoopDim>,
    /// Input base offset.
    pub in_off: usize,
    /// Output base offset.
    pub out_off: usize,
    /// Input stride between codelet slots.
    pub in_t_stride: usize,
    /// Output stride between codelet slots.
    pub out_t_stride: usize,
    /// Fused gather permutation (applied after the affine index).
    pub in_map: Option<Arc<Vec<u32>>>,
    /// Fused scatter permutation (applied after the affine index).
    pub out_map: Option<Arc<Vec<u32>>>,
    /// Scale-on-load table, indexed `[w·c + t]` (twiddle iteration `w`).
    pub twiddle: Option<Arc<Vec<Cplx>>>,
    /// Scale-on-store: output slot `t` of twiddle iteration `w` is
    /// multiplied by `twiddle_out[w·c + t]` before the scatter (fused
    /// trailing diagonal).
    pub twiddle_out: Option<Arc<Vec<Cplx>>>,
    /// Lane width ν of the short-vector backend (1 = scalar). Set by the
    /// `vectorize` pass only after proving the ν-alignment preconditions:
    /// the innermost loop is a contiguous lane loop (unit strides, count
    /// divisible by ν) and every other offset/stride/map is ν-granular,
    /// so a lane group is ν consecutive complex elements on both sides.
    pub vec_width: usize,
    /// Lane-grouped copy of `twiddle` for the vector path:
    /// `twiddle_lanes[g·c·ν + t·ν + l] = twiddle[(g·ν + l)·c + t]`, over
    /// the twiddle iterations (the innermost loop keeps twiddle stride 1,
    /// so the ν lanes of a group are ν consecutive twiddle iterations).
    /// Present iff `vec_width > 1` and `twiddle` is present; the
    /// certification passes check the correspondence (a swapped lane
    /// shuffle is rejected IR).
    pub twiddle_lanes: Option<Arc<Vec<Cplx>>>,
    /// Lane-grouped copy of `twiddle_out` (same layout contract).
    pub twiddle_out_lanes: Option<Arc<Vec<Cplx>>>,
}

impl KernelStage {
    /// A bare codelet stage covering exactly `c` contiguous points.
    pub fn unit(codelet: Codelet) -> KernelStage {
        KernelStage {
            codelet,
            loops: Vec::new(),
            in_off: 0,
            out_off: 0,
            in_t_stride: 1,
            out_t_stride: 1,
            in_map: None,
            out_map: None,
            twiddle: None,
            twiddle_out: None,
            vec_width: 1,
            twiddle_lanes: None,
            twiddle_out_lanes: None,
        }
    }

    /// Total number of codelet applications.
    pub fn iterations(&self) -> usize {
        self.loops.iter().map(|l| l.count).product()
    }

    /// Rows of the twiddle tables the index function reaches:
    /// `1 + Σ (count_d − 1)·tw_stride_d`, saturating at `usize::MAX`.
    /// Each table holds exactly this many rows of `c` entries.
    pub fn twiddle_iterations(&self) -> usize {
        self.loops.iter().fold(1, |rows, l| {
            rows.saturating_add(l.count.saturating_sub(1).saturating_mul(l.tw_stride))
        })
    }

    /// Give every outer loop along which all of the stage's twiddle
    /// tables are bit-for-bit invariant a twiddle stride of 0, and keep
    /// one table row per value of the loops that remain. The innermost
    /// loop is always kept, so the ν-lane tables keep their layout. The
    /// tables must be flat (as lowering and fusion build them) and not
    /// yet lane-grouped. Along the `I_m ⊗` block loops the tables are
    /// copies, so they shrink by the product of the block counts.
    pub fn compact_twiddles(&mut self) {
        if self.twiddle.is_none() && self.twiddle_out.is_none() {
            return;
        }
        debug_assert!(self.twiddle_lanes.is_none() && self.twiddle_out_lanes.is_none());
        let c = self.codelet.size();
        let d = self.loops.len();
        let flat: Vec<Arc<Vec<Cplx>>> = [&self.twiddle, &self.twiddle_out]
            .into_iter()
            .flatten()
            .cloned()
            .collect();
        let mut tables: Vec<Cow<'_, [Cplx]>> =
            flat.iter().map(|w| Cow::Borrowed(w.as_slice())).collect();
        // Each table is blocks of `count` rows of `inner` entries, one
        // block per value of the kept loops outside loop k.
        let mut keep = vec![true; d];
        for (k, kept) in keep.iter_mut().enumerate().take(d.saturating_sub(1)) {
            let count = self.loops[k].count;
            let inner: usize = self.loops[k + 1..]
                .iter()
                .map(|l| l.count)
                .product::<usize>()
                * c;
            let invariant = tables.iter().all(|w| {
                w.chunks_exact(count * inner).all(|block| {
                    let (first, rest) = block.split_at(inner);
                    rest.chunks_exact(inner).all(|row| same_bits(row, first))
                })
            });
            if invariant {
                *kept = false;
                for w in &mut tables {
                    *w = Cow::Owned(
                        w.chunks_exact(count * inner)
                            .flat_map(|b| &b[..inner])
                            .copied()
                            .collect(),
                    );
                }
            }
        }
        if !keep.contains(&false) {
            return;
        }
        let mut stride = 1;
        for (l, &kept) in self.loops.iter_mut().zip(&keep).rev() {
            l.tw_stride = if kept { stride } else { 0 };
            stride *= if kept { l.count } else { 1 };
        }
        let mut tables = tables.into_iter().map(|w| Arc::new(w.into_owned()));
        for w in [&mut self.twiddle, &mut self.twiddle_out] {
            if w.is_some() {
                *w = tables.next();
            }
        }
    }

    /// Order the loops of a stage in which no loop reads and writes at
    /// unit stride: a stable sort by `min(in_stride, out_stride)`,
    /// largest outermost. In the tuned plans this is the scalar first stage,
    /// whose fused digit-reversed read comes out of lowering with a
    /// strided innermost loop; in stride order its inner loops walk
    /// whole cache lines on at least one side. Each loop carries its own
    /// twiddle stride, so the tables need no change. A stage with a
    /// unit-stride loop keeps its order: either that loop is already
    /// innermost (a vector candidate, left as the `vectorize` pass
    /// expects it), or sorting would bring it innermost and make a new
    /// vector candidate, changing the plan's shape behind the cost
    /// model's back.
    pub fn order_loops(&mut self) {
        if self
            .loops
            .iter()
            .any(|l| l.in_stride == 1 && l.out_stride == 1)
        {
            return;
        }
        self.loops
            .sort_by_key(|l| std::cmp::Reverse(l.in_stride.min(l.out_stride)));
    }

    /// True when every iteration reads exactly the slots it writes: equal
    /// offsets, slot strides and loop strides on both sides, and no fused
    /// permutation. A stage that also writes each slot once can then run
    /// in place ([`ping_pong`]): each iteration loads its slots before it
    /// stores them, and no two iterations share a slot.
    pub fn in_place(&self) -> bool {
        self.in_off == self.out_off
            && self.in_t_stride == self.out_t_stride
            && self.in_map.is_none()
            && self.out_map.is_none()
            && self.loops.iter().all(|l| l.in_stride == l.out_stride)
    }

    /// Points this stage covers (must equal the program dimension).
    pub fn span(&self) -> usize {
        self.iterations() * self.codelet.size()
    }

    /// Real flops of one full stage execution.
    pub fn flops(&self) -> u64 {
        let tw = self.twiddle.as_ref().map_or(0, |_| 6 * self.span() as u64)
            + self
                .twiddle_out
                .as_ref()
                .map_or(0, |_| 6 * self.span() as u64);
        self.iterations() as u64 * self.codelet.flops() + tw
    }

    /// Enumerate the iteration space in execution order:
    /// `f(tw, in_base, out_base)` for every iteration, where `tw` is the
    /// iteration's twiddle iteration (`Σ i_d · tw_stride_d`) and the
    /// bases are the affine indices *before* `in_map`/`out_map`
    /// indirection and `t`-stride offsets. This is the IR hook the
    /// certification passes (`spiral-verify::certify`) use to replay a
    /// stage's exact access pattern — including the twiddle iteration
    /// that [`trace`](Self::trace) discards but twiddle lookup
    /// (`twiddle[tw·c + t]`) depends on.
    pub fn for_each_iteration<F: FnMut(usize, usize, usize)>(&self, f: F) {
        self.for_each_group(1, f);
    }

    /// [`for_each_iteration`](Self::for_each_iteration) over lane groups:
    /// the innermost loop steps `nu` iterations at a time, and `f` gets
    /// the twiddle iteration and bases of the group's first iteration.
    /// Vector-marked stages have a unit-stride innermost loop whose count
    /// `nu` divides, so a group is `nu` consecutive elements on both
    /// sides.
    ///
    /// The odometer lives on the stack: every loop the lowering builds
    /// has a count of at least 2 (the lifts skip count-1 loops), so each
    /// loop at least halves the remaining span and the nest is never
    /// deeper than the bits of a `usize`.
    fn for_each_group<F: FnMut(usize, usize, usize)>(&self, nu: usize, mut f: F) {
        const MAX_DEPTH: usize = usize::BITS as usize;
        let d = self.loops.len();
        assert!(d <= MAX_DEPTH, "loop nest of depth {d} exceeds {MAX_DEPTH}");
        let mut dims = [(0usize, 0usize, 0usize, 0usize); MAX_DEPTH];
        for (dim, l) in dims.iter_mut().zip(&self.loops) {
            *dim = (l.count, l.in_stride, l.out_stride, l.tw_stride);
        }
        if nu > 1 {
            let inner = &mut dims[d - 1];
            debug_assert!(inner.0.is_multiple_of(nu));
            *inner = (inner.0 / nu, inner.1 * nu, inner.2 * nu, inner.3 * nu);
        }
        let dims = &dims[..d];
        let mut idx = [0usize; MAX_DEPTH];
        let mut in_base = self.in_off;
        let mut out_base = self.out_off;
        let mut tw = 0;
        for _ in 0..self.iterations() / nu {
            f(tw, in_base, out_base);
            // Odometer increment (innermost dimension last).
            for (k, &(count, in_stride, out_stride, tw_stride)) in dims.iter().enumerate().rev() {
                idx[k] += 1;
                in_base += in_stride;
                out_base += out_stride;
                tw += tw_stride;
                if idx[k] < count {
                    break;
                }
                idx[k] = 0;
                in_base -= count * in_stride;
                out_base -= count * out_stride;
                tw -= count * tw_stride;
            }
        }
    }

    /// One past the last input and output index the affine index
    /// function reaches, before `in_map`/`out_map`: on each side
    /// `off + Σ (count_d − 1)·stride_d + (c − 1)·t_stride + 1`, or 0 for
    /// a stage with no iterations. The ν-lane groups of a stage with a
    /// contiguous lane loop (unit strides, count divisible by ν) end at
    /// the last lane's scalar index, so the same range covers them. An
    /// end past `usize::MAX` saturates, so it fits no buffer.
    pub fn extents(&self) -> (usize, usize) {
        if self.loops.iter().any(|l| l.count == 0) {
            return (0, 0);
        }
        let last = self.codelet.size() - 1;
        let end = |off: usize, t_stride: usize, stride: fn(&LoopDim) -> usize| {
            self.loops
                .iter()
                .try_fold(off, |end, l| {
                    end.checked_add((l.count - 1).checked_mul(stride(l))?)
                })
                .and_then(|end| end.checked_add(last.checked_mul(t_stride)?)?.checked_add(1))
                .unwrap_or(usize::MAX)
        };
        (
            end(self.in_off, self.in_t_stride, |l| l.in_stride),
            end(self.out_off, self.out_t_stride, |l| l.out_stride),
        )
    }

    /// Panic, naming what does not fit, unless the ν-lane walk of this
    /// stage stays inside its buffers and twiddle tables. A lane stage
    /// (ν > 1) needs a contiguous lane loop (unit strides, count
    /// divisible by ν, twiddle stride 1). Each side without a map needs
    /// its [`extents`](Self::extents) within its buffer (`src_len` is
    /// `None` for a view that checks its own reads); a mapped side
    /// indexes its map with the affine index, and [`run`](Self::run)
    /// checks each mapped index as it goes. Each twiddle table the loop
    /// reads (`tables`, scalar or lane-grouped) needs
    /// [`twiddle_iterations`](Self::twiddle_iterations) rows of `c`.
    fn assert_fits(
        &self,
        nu: usize,
        src_len: Option<usize>,
        dst_len: usize,
        tables: [Option<&[Cplx]>; 2],
    ) {
        assert!(
            nu == 1
                || self.loops.last().is_some_and(|l| {
                    (l.in_stride, l.out_stride, l.tw_stride) == (1, 1, 1)
                        && l.count.is_multiple_of(nu)
                }),
            "vec({nu}) kernel stage without a contiguous lane loop"
        );
        let (in_end, out_end) = self.extents();
        if let (None, Some(len)) = (&self.in_map, src_len) {
            assert!(
                in_end <= len,
                "kernel stage reads elements [{}, {in_end}) of a {len}-element source",
                self.in_off
            );
        }
        if self.out_map.is_none() {
            assert!(
                out_end <= dst_len,
                "kernel stage writes elements [{}, {out_end}) of a {dst_len}-element destination",
                self.out_off
            );
        }
        let (rows, c) = (self.twiddle_iterations(), self.codelet.size());
        for w in tables.into_iter().flatten() {
            assert!(
                w.len() >= rows.saturating_mul(c),
                "twiddle table of {} entries for {rows} rows of {c}",
                w.len()
            );
        }
    }

    /// Execute `dst = stage(src)`. The scratch argument is unused.
    pub fn apply(&self, src: &[Cplx], dst: &mut [Cplx], _scratch: &mut Scratch) {
        self.apply_view(SrcView::Local(src), dst);
    }

    /// Execute with an arbitrary input view (local slice or fused global
    /// gather). The codelet size and lane width are dispatched once per
    /// call, to a loop nest monomorphised for both. Stages marked by the
    /// `vectorize` pass take the ν-lane path when the view is a plain
    /// local slice; gathered views (fused exchanges read the *global*
    /// buffer through an arbitrary table, so lane groups need not be
    /// contiguous there) take the scalar path, which is always valid for
    /// vector-marked IR.
    ///
    /// Bounds are proven once per call where the index function is
    /// affine: before its first write the stage checks the
    /// [`extents`](Self::extents) of each side without a map against its
    /// buffer, panicking with the range and the buffer length if it does
    /// not fit, and those slots are then read and written without
    /// per-access checks. Mapped sides and gathered views are checked at
    /// each access.
    pub fn apply_view(&self, src: SrcView<'_>, dst: &mut [Cplx]) {
        with_size(self.codelet.size(), KernelLoop(self, Some(src), dst));
    }

    /// Execute `buf = stage(buf)` in place. Valid only for a stage that
    /// reads exactly the slots it writes ([`in_place`](Self::in_place)).
    /// Bounds are proven once per call, as in
    /// [`apply_view`](Self::apply_view).
    pub fn apply_in_place(&self, buf: &mut [Cplx]) {
        debug_assert!(self.in_place(), "stage does not run in place");
        with_size(self.codelet.size(), KernelLoop(self, None, buf));
    }

    /// The loop nest of one stage with codelet size `C` on lane type `T`:
    /// each lane group's `C` slots are loaded from `src` (fused gather
    /// map and on-load twiddles applied as they come) into a stack array,
    /// transformed by the generated kernel, and stored straight to `dst`
    /// (on-store twiddles, fused scatter map). Twiddle entry `t` of the
    /// lane group whose first twiddle iteration is `w` (a multiple of ν)
    /// sits at `w·C + t·ν` in the scalar (ν = 1) or lane-grouped table.
    ///
    /// [`assert_fits`](Self::assert_fits) proves the affine range of each
    /// side without a map once, before the loop; those slots are then
    /// loaded and stored through raw pointers (each index
    /// `debug_assert!`ed). A mapped index is checked as it is read from
    /// its map, and a [`SrcView`] input checks its own reads. Every access
    /// to `dst`, an in-place stage's loads included, goes through the one
    /// pointer taken from `dst.as_mut_ptr()`.
    #[inline(never)]
    fn run<const C: usize, T: Lane, S: Input<T>>(
        &self,
        src: S,
        tw_in: Option<&[Cplx]>,
        tw_out: Option<&[Cplx]>,
        dst: &mut [Cplx],
    ) where
        Kernels: Dft<C>,
    {
        let (in_map, out_map) = (self.in_map.as_deref(), self.out_map.as_deref());
        let (src_len, dst_len) = (src.raw_len(dst.len()), dst.len());
        self.assert_fits(T::NU, src_len, dst_len, [tw_in, tw_out]);
        let d = dst.as_mut_ptr();
        let scale = |v: T, tw: Option<&[Cplx]>, at: usize| match tw {
            Some(w) => {
                debug_assert!(at + T::NU <= w.len());
                // SAFETY: `assert_fits` proved the table holds every row
                // the walk reaches.
                v.mul_lanes(unsafe { T::read(w.as_ptr(), at) })
            }
            None => v,
        };
        self.for_each_group(T::NU, |w, in_base, out_base| {
            let mut x = [T::ZERO; C];
            for (t, x) in x.iter_mut().enumerate() {
                let a = in_base + t * self.in_t_stride;
                let i = in_map.map_or(a, |m| mapped(m, a, T::NU, src_len));
                debug_assert!(src_len.is_none_or(|len| i + T::NU <= len));
                // SAFETY: an unmapped `i` lies in the range `assert_fits`
                // proved, a mapped one passed `mapped`'s check, and `d`
                // covers the `dst_len` elements an in-place input reads.
                *x = scale(unsafe { src.load(d, i) }, tw_in, w * C + t * T::NU);
            }
            for (t, y) in Kernels::dft(x).into_iter().enumerate() {
                let a = out_base + t * self.out_t_stride;
                let o = out_map.map_or(a, |m| mapped(m, a, T::NU, Some(dst_len)));
                debug_assert!(o + T::NU <= dst_len);
                // SAFETY: as for the loads, `o + ν ≤ dst_len`, and `d`
                // is the only pointer into `dst` the loop uses.
                unsafe { scale(y, tw_out, w * C + t * T::NU).write(d, o) };
            }
        });
    }

    /// Emit the memory-access stream of one execution (for the machine
    /// simulator): `f(is_write, idx)` in program order — the `c` reads of
    /// each iteration, then its `c` writes.
    pub fn trace<F: FnMut(bool, usize)>(&self, mut f: F) {
        let c = self.codelet.size();
        let in_map = self.in_map.as_deref();
        let out_map = self.out_map.as_deref();
        self.for_each_iteration(|_tw, in_base, out_base| {
            for t in 0..c {
                let mut idx = in_base + t * self.in_t_stride;
                if let Some(m) = in_map {
                    idx = m[idx] as usize;
                }
                f(false, idx);
            }
            for t in 0..c {
                let mut idx = out_base + t * self.out_t_stride;
                if let Some(m) = out_map {
                    idx = m[idx] as usize;
                }
                f(true, idx);
            }
        });
    }
}

/// One stage call (stage, source, destination), to be monomorphised per
/// codelet size by [`with_size`]. No source means the stage runs in place
/// on the destination ([`KernelStage::apply_in_place`]).
struct KernelLoop<'a, 's>(&'s KernelStage, Option<SrcView<'a>>, &'s mut [Cplx]);

impl SizeFn for KernelLoop<'_, '_> {
    type Out = ();
    #[inline(always)]
    fn call<const C: usize>(self)
    where
        Kernels: Dft<C>,
    {
        let KernelLoop(k, src, dst) = self;
        // A gathered view has no lane groups and always takes the scalar
        // path.
        if !cfg!(feature = "force-scalar") {
            let (tw, tw_out) = (table(&k.twiddle_lanes), table(&k.twiddle_out_lanes));
            match (k.vec_width, src) {
                (2, None) => return k.run::<C, Lanes<2>, _>(InPlace, tw, tw_out, dst),
                (2, Some(SrcView::Local(s))) => return k.run::<C, Lanes<2>, _>(s, tw, tw_out, dst),
                (4, None) => return k.run::<C, Lanes<4>, _>(InPlace, tw, tw_out, dst),
                (4, Some(SrcView::Local(s))) => return k.run::<C, Lanes<4>, _>(s, tw, tw_out, dst),
                _ => {}
            }
        }
        let (tw, tw_out) = (table(&k.twiddle), table(&k.twiddle_out));
        match src {
            None => k.run::<C, Cplx, _>(InPlace, tw, tw_out, dst),
            Some(SrcView::Local(s)) => k.run::<C, Cplx, _>(s, tw, tw_out, dst),
            Some(view) => k.run::<C, Cplx, _>(view, tw, tw_out, dst),
        }
    }
}

/// The input of one stage loop ([`KernelStage::run`]).
trait Input<T: Lane>: Copy {
    /// Length of the buffer that raw loads read, given the destination's
    /// length `dst`; `None` for an input that checks its own reads.
    fn raw_len(self, dst: usize) -> Option<usize>;
    /// The value at index `i`. An in-place input reads it through `dst`.
    ///
    /// # Safety
    /// When [`raw_len`](Self::raw_len) is `Some(len)`, `i + ν ≤ len`; and
    /// `dst` is valid for reads of the destination's length.
    unsafe fn load(self, dst: *const Cplx, i: usize) -> T;
}

/// The input of an in-place stage: the destination itself.
#[derive(Copy, Clone)]
struct InPlace;

impl<T: Lane> Input<T> for InPlace {
    fn raw_len(self, dst: usize) -> Option<usize> {
        Some(dst)
    }
    #[inline(always)]
    unsafe fn load(self, dst: *const Cplx, i: usize) -> T {
        // SAFETY: `i + ν ≤ dst`'s length, and `dst` is readable that far.
        unsafe { T::read(dst, i) }
    }
}

impl<T: Lane> Input<T> for &[Cplx] {
    fn raw_len(self, _: usize) -> Option<usize> {
        Some(self.len())
    }
    #[inline(always)]
    unsafe fn load(self, _: *const Cplx, i: usize) -> T {
        // SAFETY: `i + ν ≤ self.len()`.
        unsafe { T::read(self.as_ptr(), i) }
    }
}

/// A view's reads are checked ([`SrcView::get`]); the loop runs it only
/// for gathered views.
impl Input<Cplx> for SrcView<'_> {
    fn raw_len(self, _: usize) -> Option<usize> {
        None
    }
    #[inline(always)]
    unsafe fn load(self, _: *const Cplx, i: usize) -> Cplx {
        self.get(i)
    }
}

/// The index a fused map sends affine index `a` to, checked to start a
/// group of `nu` elements inside a buffer of `len` (`None`: the input
/// checks its own reads).
#[inline(always)]
fn mapped(map: &[u32], a: usize, nu: usize, len: Option<usize>) -> usize {
    let i = map[a] as usize;
    if let Some(len) = len {
        assert!(
            i + nu <= len,
            "fused map sends index {a} to {i}, outside a {len}-element buffer"
        );
    }
    i
}

fn table(t: &Option<Arc<Vec<Cplx>>>) -> Option<&[Cplx]> {
    t.as_deref().map(Vec::as_slice)
}

/// Bit-for-bit equality of two twiddle rows.
fn same_bits(a: &[Cplx], b: &[Cplx]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Kept for callers that thread a scratch value through stage calls:
/// the generated kernels keep their values in registers and on the
/// stack, so there is nothing left to reuse.
#[derive(Default)]
pub struct Scratch;

/// Input view of a stage: either a local slice, or an indirected view
/// into a *global* buffer through a permutation table — the executable
/// form of a fused `P ⊗̄ I_µ` exchange (the paper's [11]-style merging of
/// permutations into the adjacent compute loop, applied across the
/// parallel boundary).
#[derive(Copy, Clone)]
pub enum SrcView<'a> {
    /// A plain local slice.
    Local(&'a [Cplx]),
    /// `value(i) = buf[gather[off + i]]`.
    Gathered {
        /// The global buffer.
        buf: &'a [Cplx],
        /// The gather table (size of the global buffer).
        gather: &'a [u32],
        /// This chunk's offset into the table.
        off: usize,
    },
}

impl<'a> From<&'a [Cplx]> for SrcView<'a> {
    fn from(s: &'a [Cplx]) -> Self {
        SrcView::Local(s)
    }
}

impl<'a> SrcView<'a> {
    /// Value at logical index `i`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Cplx {
        match self {
            SrcView::Local(s) => s[i],
            SrcView::Gathered { buf, gather, off } => buf[gather[off + i] as usize],
        }
    }
}

/// One stage of a local program.
#[derive(Clone, Debug)]
pub enum LocalStage {
    /// A codelet loop nest.
    Kernel(KernelStage),
    /// `dst[i] = src[table[i]]`.
    Permute(Arc<Vec<u32>>),
    /// `dst[i] = src[i] * table[i]`.
    Scale(Arc<Vec<Cplx>>),
}

impl LocalStage {
    /// Real flops of one application over a `dim`-point vector.
    pub fn flops(&self, dim: usize) -> u64 {
        match self {
            LocalStage::Kernel(k) => k.flops(),
            LocalStage::Permute(_) => 0,
            LocalStage::Scale(_) => 6 * dim as u64,
        }
    }

    /// True for a kernel stage that reads exactly the slots it writes
    /// ([`KernelStage::in_place`]); permutations and scalings always run
    /// out of place.
    pub fn in_place(&self) -> bool {
        matches!(self, LocalStage::Kernel(k) if k.in_place())
    }

    /// Execute `dst = stage(src)`. The scratch argument is unused.
    pub fn apply(&self, src: &[Cplx], dst: &mut [Cplx], _scratch: &mut Scratch) {
        self.apply_view(SrcView::Local(src), dst);
    }

    /// Execute `buf = stage(buf)` in place (an [`in_place`](Self::in_place)
    /// stage only).
    pub fn apply_in_place(&self, buf: &mut [Cplx]) {
        match self {
            LocalStage::Kernel(k) => k.apply_in_place(buf),
            _ => unreachable!("only kernel stages run in place"),
        }
    }

    /// Execute with an arbitrary input view (dispatch hoisted out of the
    /// element loops).
    pub fn apply_view(&self, src: SrcView<'_>, dst: &mut [Cplx]) {
        match self {
            LocalStage::Kernel(k) => k.apply_view(src, dst),
            LocalStage::Permute(t) => match src {
                SrcView::Local(s) => {
                    for (d, &i) in dst.iter_mut().zip(t.iter()) {
                        *d = s[i as usize];
                    }
                }
                SrcView::Gathered { buf, gather, off } => {
                    for (d, &i) in dst.iter_mut().zip(t.iter()) {
                        *d = buf[gather[off + i as usize] as usize];
                    }
                }
            },
            LocalStage::Scale(w) => match src {
                SrcView::Local(s) => {
                    for ((d, wi), v) in dst.iter_mut().zip(w.iter()).zip(s.iter()) {
                        *d = *v * *wi;
                    }
                }
                SrcView::Gathered { buf, gather, off } => {
                    for (i, (d, wi)) in dst.iter_mut().zip(w.iter()).enumerate() {
                        *d = buf[gather[off + i] as usize] * *wi;
                    }
                }
            },
        }
    }

    /// Emit `f(is_write, idx)` for every access of one application.
    pub fn trace<F: FnMut(bool, usize)>(&self, dim: usize, mut f: F) {
        match self {
            LocalStage::Kernel(k) => k.trace(f),
            LocalStage::Permute(t) => {
                for (i, &s) in t.iter().enumerate() {
                    f(false, s as usize);
                    f(true, i);
                }
            }
            LocalStage::Scale(_) => {
                for i in 0..dim {
                    f(false, i);
                    f(true, i);
                }
            }
        }
    }
}

/// A buffer of the ping-pong that runs a sequence of passes from an
/// input to an output ([`ping_pong`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Buf {
    /// The input, read only by the first pass and never written.
    Src,
    /// The scratch buffer the passes alternate with.
    Tmp,
    /// The output, written by the last pass.
    Dst,
}

/// The buffer rule for a sequence of passes, given whether each pass may
/// run in place: `(input, output)` of each pass in order. Pass 0 reads
/// `Src`. A later pass that may run in place reads and writes the buffer
/// the previous pass wrote; every other pass reads that buffer and writes
/// the other of `Tmp` and `Dst`. A pass writes `Dst` when an even number
/// of later passes switch buffers, so the last pass writes `Dst`. With no
/// in-place pass this is the plain ping-pong, and no pass reads the
/// buffer it writes. A [`LocalProgram`]'s stages
/// ([`LocalProgram::passes`]) and a sequential plan's steps, which never
/// run in place ([`crate::Plan::execute_into`]), both run by this rule.
pub fn ping_pong<I>(in_place: I) -> impl Iterator<Item = (Buf, Buf)>
where
    I: IntoIterator<Item = bool>,
    I::IntoIter: Clone,
{
    let passes = in_place.into_iter();
    // Passes after the current one that switch buffers.
    let mut later = passes.clone().skip(1).filter(|&p| !p).count();
    let mut prev = Buf::Src;
    passes.enumerate().map(move |(k, in_place)| {
        if k > 0 && !in_place {
            later -= 1;
        }
        let output = if later.is_multiple_of(2) {
            Buf::Dst
        } else {
            Buf::Tmp
        };
        (std::mem::replace(&mut prev, output), output)
    })
}

/// Pick one pass's buffers out of the three: `(Some(input), output)`,
/// or `(None, output)` for a pass that runs in place on `output`. `read`
/// turns a writable buffer into an input.
pub(crate) fn pass_buffers<S, D>(
    (input, output): (Buf, Buf),
    src: S,
    tmp: D,
    dst: D,
    read: impl FnOnce(D) -> S,
) -> (Option<S>, D) {
    match (input, output) {
        (Buf::Src, Buf::Dst) => (Some(src), dst),
        (Buf::Src, Buf::Tmp) => (Some(src), tmp),
        (Buf::Tmp, Buf::Dst) => (Some(read(tmp)), dst),
        (Buf::Dst, Buf::Tmp) => (Some(read(dst)), tmp),
        (Buf::Tmp, Buf::Tmp) => (None, tmp),
        (Buf::Dst, Buf::Dst) => (None, dst),
        (_, Buf::Src) => unreachable!("no pass writes the input"),
    }
}

/// A sequence of stages on vectors of dimension `dim`, run by the
/// [`ping_pong`] rule. An empty program denotes the identity.
#[derive(Clone, Debug, Default)]
pub struct LocalProgram {
    /// Vector dimension every stage operates on.
    pub dim: usize,
    /// Stages in application order.
    pub stages: Vec<LocalStage>,
}

impl LocalProgram {
    /// The empty (identity) program.
    pub fn identity(dim: usize) -> LocalProgram {
        LocalProgram {
            dim,
            stages: Vec::new(),
        }
    }

    /// Total real flops of one execution.
    pub fn flops(&self) -> u64 {
        self.stages.iter().map(|s| s.flops(self.dim)).sum()
    }

    /// Each stage with the buffers it reads and writes, by the
    /// [`ping_pong`] rule: a stage that reads exactly the slots it writes
    /// ([`LocalStage::in_place`]) runs in place after the first. An empty
    /// program has no passes; it copies `Src` to `Dst`.
    pub fn passes(&self) -> impl Iterator<Item = (&LocalStage, Buf, Buf)> {
        let in_place = self.stages.iter().enumerate();
        self.stages
            .iter()
            .zip(ping_pong(in_place.map(|(k, s)| k > 0 && s.in_place())))
            .map(|(stage, (input, output))| (stage, input, output))
    }

    /// True when some pass ([`passes`](Self::passes)) reads or writes
    /// `Tmp`: only then does a run need scratch.
    pub fn uses_tmp(&self) -> bool {
        self.passes()
            .any(|(_, input, output)| input == Buf::Tmp || output == Buf::Tmp)
    }

    /// Execute `dst = program(src)`. `tmp` must have length ≥ `dim` when
    /// the program [uses scratch](Self::uses_tmp); `src` is never written.
    pub fn run(&self, src: &[Cplx], dst: &mut [Cplx], tmp: &mut [Cplx]) {
        self.run_view(SrcView::Local(src), dst, tmp);
    }

    /// Execute with an arbitrary input view feeding the first stage
    /// (used by fused-exchange parallel steps).
    pub fn run_view(&self, src: SrcView<'_>, dst: &mut [Cplx], tmp: &mut [Cplx]) {
        assert!(dst.len() == self.dim);
        if self.stages.is_empty() {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = src.get(i);
            }
            return;
        }
        for (stage, input, output) in self.passes() {
            let scratch = if input == Buf::Tmp || output == Buf::Tmp {
                assert!(
                    tmp.len() >= self.dim,
                    "scratch of {} elements for a {}-element program",
                    tmp.len(),
                    self.dim
                );
                &mut tmp[..self.dim]
            } else {
                &mut tmp[..0]
            };
            match pass_buffers((input, output), src, scratch, &mut *dst, |b| {
                SrcView::Local(b)
            }) {
                (Some(from), to) => stage.apply_view(from, to),
                (None, buf) => stage.apply_in_place(buf),
            }
        }
    }

    /// Convenience out-of-place evaluation (allocates).
    pub fn eval(&self, src: &[Cplx]) -> Vec<Cplx> {
        let mut dst = vec![Cplx::ZERO; self.dim];
        let mut tmp = vec![Cplx::ZERO; self.dim];
        self.run(src, &mut dst, &mut tmp);
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_spl::cplx::assert_slices_close;
    use spiral_spl::perm::Perm;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|k| Cplx::new(k as f64 + 1.0, -(k as f64)))
            .collect()
    }

    /// Stride order sorts a stage with no unit-stride loop, stably, and
    /// leaves a stage with one where lowering put it.
    #[test]
    fn order_loops_sorts_only_stages_without_a_unit_stride_loop() {
        let dim = |count, in_stride, out_stride, tw_stride| LoopDim {
            count,
            in_stride,
            out_stride,
            tw_stride,
        };
        let mut k = KernelStage::unit(Codelet::for_size(2));
        k.loops = vec![dim(2, 1, 16, 0), dim(2, 2, 8, 0), dim(2, 8, 2, 1)];
        k.order_loops();
        assert_eq!(
            k.loops,
            [dim(2, 2, 8, 0), dim(2, 8, 2, 1), dim(2, 1, 16, 0)]
        );
        for lowering in [
            vec![dim(2, 4, 2, 0), dim(2, 1, 1, 1)],
            vec![dim(2, 1, 1, 0), dim(2, 2, 4, 1)],
        ] {
            k.loops = lowering.clone();
            k.order_loops();
            assert_eq!(k.loops, lowering);
        }
    }

    #[test]
    fn unit_kernel_stage_is_plain_codelet() {
        let stage = KernelStage::unit(Codelet::for_size(2));
        assert_eq!(stage.span(), 2);
        let x = ramp(2);
        let mut y = vec![Cplx::ZERO; 2];
        stage.apply(&x, &mut y, &mut Scratch);
        assert!(y[0].approx_eq(x[0] + x[1], 1e-12));
        assert!(y[1].approx_eq(x[0] - x[1], 1e-12));
    }

    #[test]
    fn block_loop_matches_i_tensor_a() {
        // I_3 ⊗ F_2: 3 contiguous blocks.
        let mut stage = KernelStage::unit(Codelet::for_size(2));
        stage.loops.push(LoopDim {
            count: 3,
            in_stride: 2,
            out_stride: 2,
            tw_stride: 1,
        });
        assert_eq!(stage.span(), 6);
        let x = ramp(6);
        let mut y = vec![Cplx::ZERO; 6];
        stage.apply(&x, &mut y, &mut Scratch);
        let want =
            spiral_spl::builder::tensor(spiral_spl::builder::i(3), spiral_spl::builder::f2())
                .eval(&x);
        assert_slices_close(&y, &want, 1e-12);
    }

    #[test]
    fn stride_loop_matches_a_tensor_i() {
        // F_2 ⊗ I_3: codelet at stride 3, loop stride 1.
        let mut stage = KernelStage::unit(Codelet::for_size(2));
        stage.in_t_stride = 3;
        stage.out_t_stride = 3;
        stage.loops.push(LoopDim {
            count: 3,
            in_stride: 1,
            out_stride: 1,
            tw_stride: 1,
        });
        let x = ramp(6);
        let mut y = vec![Cplx::ZERO; 6];
        stage.apply(&x, &mut y, &mut Scratch);
        let want =
            spiral_spl::builder::tensor(spiral_spl::builder::f2(), spiral_spl::builder::i(3))
                .eval(&x);
        assert_slices_close(&y, &want, 1e-12);
    }

    #[test]
    fn fused_gather_permutation() {
        // (I_2 ⊗ F_2) L^4_2 with the stride permutation fused as a gather.
        let l = Perm::stride(4, 2);
        let table: Arc<Vec<u32>> = Arc::new(l.table().iter().map(|&v| crate::u32_idx(v)).collect());
        let mut stage = KernelStage::unit(Codelet::for_size(2));
        stage.loops.push(LoopDim {
            count: 2,
            in_stride: 2,
            out_stride: 2,
            tw_stride: 1,
        });
        stage.in_map = Some(table);
        let x = ramp(4);
        let mut y = vec![Cplx::ZERO; 4];
        stage.apply(&x, &mut y, &mut Scratch);
        let want = spiral_spl::builder::compose(vec![
            spiral_spl::builder::tensor(spiral_spl::builder::i(2), spiral_spl::builder::f2()),
            spiral_spl::builder::stride(4, 2),
        ])
        .eval(&x);
        assert_slices_close(&y, &want, 1e-12);
    }

    #[test]
    fn fused_twiddle_scaling() {
        // (I_2 ⊗ F_2) · diag(w): twiddle applied on load.
        let w: Vec<Cplx> = (0..4).map(|k| Cplx::cis(0.3 * k as f64)).collect();
        let mut stage = KernelStage::unit(Codelet::for_size(2));
        stage.loops.push(LoopDim {
            count: 2,
            in_stride: 2,
            out_stride: 2,
            tw_stride: 1,
        });
        stage.twiddle = Some(Arc::new(w.clone()));
        let x = ramp(4);
        let mut y = vec![Cplx::ZERO; 4];
        stage.apply(&x, &mut y, &mut Scratch);
        let want = spiral_spl::builder::compose(vec![
            spiral_spl::builder::tensor(spiral_spl::builder::i(2), spiral_spl::builder::f2()),
            spiral_spl::builder::diag(w),
        ])
        .eval(&x);
        assert_slices_close(&y, &want, 1e-12);
    }

    #[test]
    fn compaction_drops_only_loops_the_tables_are_invariant_along() {
        // I_3 ⊗ ((I_2 ⊗ F_2) · diag(w)): the flat table repeats per block.
        let w: Vec<Cplx> = (0..4).map(|k| Cplx::cis(0.3 * k as f64)).collect();
        let mut stage = KernelStage::unit(Codelet::for_size(2));
        stage.loops = vec![
            LoopDim {
                count: 3,
                in_stride: 4,
                out_stride: 4,
                tw_stride: 2,
            },
            LoopDim {
                count: 2,
                in_stride: 2,
                out_stride: 2,
                tw_stride: 1,
            },
        ];
        stage.twiddle_out = Some(Arc::new(w.repeat(3)));
        let x = ramp(12);
        let (mut flat, mut compact) = (vec![Cplx::ZERO; 12], vec![Cplx::ZERO; 12]);
        stage.apply(&x, &mut flat, &mut Scratch);
        let mut k = stage.clone();
        k.compact_twiddles();
        assert_eq!(k.twiddle_out.as_deref().map(Vec::len), Some(4));
        assert_eq!(
            k.loops.iter().map(|l| l.tw_stride).collect::<Vec<_>>(),
            [0, 1]
        );
        assert_eq!(k.twiddle_iterations(), 2);
        k.apply(&x, &mut compact, &mut Scratch);
        assert_slices_close(&compact, &flat, 0.0);
        // One differing entry in the last block keeps the block loop.
        let mut varied = w.repeat(3);
        varied[11] = -varied[11];
        stage.twiddle_out = Some(Arc::new(varied));
        let mut k = stage.clone();
        k.compact_twiddles();
        assert_eq!(k.twiddle_out.as_deref().map(Vec::len), Some(12));
        assert_eq!(
            k.loops.iter().map(|l| l.tw_stride).collect::<Vec<_>>(),
            [2, 1]
        );
    }

    #[test]
    fn permute_and_scale_stages() {
        let perm = Perm::stride(6, 2);
        let table: Arc<Vec<u32>> =
            Arc::new(perm.table().iter().map(|&v| crate::u32_idx(v)).collect());
        let x = ramp(6);
        let mut y = vec![Cplx::ZERO; 6];
        LocalStage::Permute(table).apply(&x, &mut y, &mut Scratch);
        for r in 0..6 {
            assert!(y[r].approx_eq(x[perm.src(r)], 0.0));
        }
        let w: Vec<Cplx> = (0..6).map(|k| Cplx::real(k as f64)).collect();
        let mut z = vec![Cplx::ZERO; 6];
        LocalStage::Scale(Arc::new(w.clone())).apply(&x, &mut z, &mut Scratch);
        for r in 0..6 {
            assert!(z[r].approx_eq(x[r] * w[r], 1e-12));
        }
    }

    #[test]
    fn program_ping_pong_any_length() {
        // Four F2-block stages compose: (I2⊗F2)^4 = 4·(I2⊗I2)... i.e.
        // applying the same stage repeatedly; check against formula eval.
        let mut stage = KernelStage::unit(Codelet::for_size(2));
        stage.loops.push(LoopDim {
            count: 2,
            in_stride: 2,
            out_stride: 2,
            tw_stride: 1,
        });
        for len in 1..=4 {
            let prog = LocalProgram {
                dim: 4,
                stages: vec![LocalStage::Kernel(stage.clone()); len],
            };
            let x = ramp(4);
            let got = prog.eval(&x);
            let f =
                spiral_spl::builder::tensor(spiral_spl::builder::i(2), spiral_spl::builder::f2());
            let mut want = x.clone();
            for _ in 0..len {
                want = f.eval(&want);
            }
            assert_slices_close(&got, &want, 1e-10);
        }
    }

    /// Without in-place passes the rule is the plain ping-pong; an
    /// in-place pass keeps the previous pass's buffer, and the parity
    /// still lands the last pass in `Dst`.
    #[test]
    fn ping_pong_runs_in_place_passes_on_the_previous_output() {
        use Buf::{Dst, Src, Tmp};
        let rule = |flags: &[bool]| ping_pong(flags.iter().copied()).collect::<Vec<_>>();
        assert_eq!(rule(&[false]), [(Src, Dst)]);
        assert_eq!(rule(&[false; 3]), [(Src, Dst), (Dst, Tmp), (Tmp, Dst)]);
        assert_eq!(rule(&[true; 3]), [(Src, Dst), (Dst, Dst), (Dst, Dst)]);
        assert_eq!(
            rule(&[false, false, true]),
            [(Src, Tmp), (Tmp, Dst), (Dst, Dst)]
        );
        assert_eq!(
            rule(&[false, true, false]),
            [(Src, Tmp), (Tmp, Tmp), (Tmp, Dst)]
        );
    }

    /// Every mix of in-place and out-of-place stages up to length 4 runs,
    /// with scratch only if it [uses it](LocalProgram::uses_tmp), to the
    /// stage-by-stage out-of-place replay.
    #[test]
    fn in_place_mixes_match_the_replay() {
        let mut in_place = KernelStage::unit(Codelet::for_size(2));
        in_place.loops.push(LoopDim {
            count: 2,
            in_stride: 2,
            out_stride: 2,
            tw_stride: 1,
        });
        let mut mapped = in_place.clone();
        mapped.in_map = Some(Arc::new((0..4).collect()));
        for len in 1..=4usize {
            for mask in 0..1u32 << len {
                let stages = (0..len)
                    .map(|k| match mask >> k & 1 {
                        1 => LocalStage::Kernel(in_place.clone()),
                        _ => LocalStage::Kernel(mapped.clone()),
                    })
                    .collect();
                let prog = LocalProgram { dim: 4, stages };
                let x = ramp(4);
                let mut out = vec![Cplx::ZERO; 4];
                let mut tmp_buf = vec![Cplx::ZERO; if prog.uses_tmp() { 4 } else { 0 }];
                prog.run(&x, &mut out, &mut tmp_buf);
                let mut want = x.clone();
                for stage in &prog.stages {
                    let mut next = vec![Cplx::ZERO; 4];
                    stage.apply(&want, &mut next, &mut Scratch);
                    want = next;
                }
                assert_slices_close(&out, &want, 0.0);
            }
        }
    }

    /// A program that uses scratch rejects a scratch buffer shorter than
    /// its dimension, instead of running a pass over part of it.
    #[test]
    #[should_panic(expected = "scratch of 3 elements for a 4-element program")]
    fn short_scratch_panics_when_used() {
        let mut mapped = KernelStage::unit(Codelet::for_size(2));
        mapped.loops.push(LoopDim {
            count: 2,
            in_stride: 2,
            out_stride: 2,
            tw_stride: 1,
        });
        mapped.in_map = Some(Arc::new((0..4).collect()));
        let prog = LocalProgram {
            dim: 4,
            stages: vec![
                LocalStage::Kernel(mapped.clone()),
                LocalStage::Kernel(mapped),
            ],
        };
        assert!(prog.uses_tmp());
        let mut out = vec![Cplx::ZERO; 4];
        prog.run(&ramp(4), &mut out, &mut [Cplx::ZERO; 3]);
    }

    /// A stage with equal strides on both sides runs in place; a fused
    /// map or a differing stride makes it run out of place.
    #[test]
    fn in_place_stage_matches_out_of_place_bitwise() {
        let mut stage = KernelStage::unit(Codelet::for_size(4));
        stage.in_t_stride = 2;
        stage.out_t_stride = 2;
        stage.loops.push(LoopDim {
            count: 2,
            in_stride: 1,
            out_stride: 1,
            tw_stride: 1,
        });
        stage.twiddle = Some(Arc::new(
            (0..8).map(|k| Cplx::cis(0.1 * k as f64)).collect(),
        ));
        assert!(stage.in_place());
        let x = ramp(8);
        let mut want = vec![Cplx::ZERO; 8];
        stage.apply(&x, &mut want, &mut Scratch);
        let mut buf = x.clone();
        stage.apply_in_place(&mut buf);
        assert_slices_close(&buf, &want, 0.0);
        let mut mapped = stage.clone();
        mapped.in_map = Some(Arc::new((0..8).collect()));
        assert!(!mapped.in_place());
        stage.loops[0].out_stride = 2;
        assert!(!stage.in_place());
    }

    /// `DFT_4 ⊗ I_8` at offset 4 with twiddles on load and on store,
    /// scalar or marked for ν lanes: both sides reach index 35.
    fn offset_stage(nu: usize) -> KernelStage {
        let mut k = KernelStage::unit(Codelet::for_size(4));
        (k.in_off, k.out_off, k.in_t_stride, k.out_t_stride) = (4, 4, 8, 8);
        k.loops.push(LoopDim {
            count: 8,
            in_stride: 1,
            out_stride: 1,
            tw_stride: 1,
        });
        let table = |step: f64| {
            Some(Arc::new(
                (0..32).map(|i| Cplx::cis(step * f64::from(i))).collect(),
            ))
        };
        (k.twiddle, k.twiddle_out) = (table(0.1), table(-0.2));
        if nu > 1 {
            assert!(crate::vectorize::vectorize_stage(&mut k, nu));
        }
        k
    }

    /// Run `k` on a `src`-element source and a `dst`-element destination
    /// (in place on the destination when `src` is `None`). `Err` carries
    /// the panic message and whether the destination kept every bit.
    fn run_caught(k: &KernelStage, src: Option<usize>, dst: usize) -> Result<(), (String, bool)> {
        let x = ramp(src.unwrap_or(0));
        let before: Vec<Cplx> = ramp(dst).iter().map(|v| -*v).collect();
        let mut out = before.clone();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match src {
            Some(_) => k.apply_view(SrcView::Local(&x), &mut out),
            None => k.apply_in_place(&mut out),
        }))
        .map_err(|e| {
            let msg = e.downcast_ref::<String>().cloned().unwrap_or_default();
            (msg, same_bits(&out, &before))
        })
    }

    /// A stage whose range does not fit a buffer or a twiddle table
    /// panics with a message naming it before it writes anything, on the
    /// scalar and the ν = 4 path, in place and out of place; a range
    /// that ends exactly at the last element runs.
    #[test]
    fn a_stage_that_does_not_fit_panics_before_any_write() {
        for nu in [1, 4] {
            let k = offset_stage(nu);
            assert_eq!(k.extents(), (36, 36));
            assert_eq!(run_caught(&k, Some(36), 36), Ok(()));
            assert_eq!(run_caught(&k, None, 36), Ok(()));
            let untouched = |msg: &str| Err((msg.to_string(), true));
            assert_eq!(
                run_caught(&k, Some(35), 36),
                untouched("kernel stage reads elements [4, 36) of a 35-element source")
            );
            assert_eq!(
                run_caught(&k, Some(36), 35),
                untouched("kernel stage writes elements [4, 36) of a 35-element destination")
            );
            // In place the destination is also the source.
            assert_eq!(
                run_caught(&k, None, 35),
                untouched("kernel stage reads elements [4, 36) of a 35-element source")
            );
            let short = |mut k: KernelStage, on_store: bool| {
                let tables = if on_store {
                    [&mut k.twiddle_out, &mut k.twiddle_out_lanes]
                } else {
                    [&mut k.twiddle, &mut k.twiddle_lanes]
                };
                for w in tables.into_iter().flatten() {
                    *w = Arc::new(w[..31].to_vec());
                }
                k
            };
            for on_store in [false, true] {
                let k = short(k.clone(), on_store);
                let msg = untouched("twiddle table of 31 entries for 8 rows of 4");
                assert_eq!(run_caught(&k, Some(36), 36), msg);
                assert_eq!(run_caught(&k, None, 36), msg);
            }
        }
    }

    /// A lane-marked stage whose lane loop is not contiguous is refused
    /// before it runs; a mapped side checks each index it maps.
    #[test]
    fn lane_and_map_faults_panic_instead_of_reading_out_of_bounds() {
        if cfg!(not(feature = "force-scalar")) {
            let mut k = offset_stage(4);
            k.loops[0].in_stride = 2;
            let (msg, untouched) = run_caught(&k, Some(64), 64).unwrap_err();
            assert_eq!(msg, "vec(4) kernel stage without a contiguous lane loop");
            assert!(untouched);
        }
        let mut k = offset_stage(1);
        let mut map: Vec<u32> = (0..36).collect();
        map[35] = 36;
        k.out_map = Some(Arc::new(map));
        let (msg, _) = run_caught(&k, Some(36), 36).unwrap_err();
        assert_eq!(
            msg,
            "fused map sends index 35 to 36, outside a 36-element buffer"
        );
    }

    #[test]
    fn empty_program_is_identity() {
        let prog = LocalProgram::identity(5);
        let x = ramp(5);
        assert_slices_close(&prog.eval(&x), &x, 0.0);
        assert_eq!(prog.flops(), 0);
    }

    #[test]
    fn trace_covers_all_outputs_once() {
        let mut stage = KernelStage::unit(Codelet::for_size(2));
        stage.loops.push(LoopDim {
            count: 4,
            in_stride: 2,
            out_stride: 2,
            tw_stride: 1,
        });
        let mut writes = vec![0usize; 8];
        let mut reads = vec![0usize; 8];
        stage.trace(|is_write, idx| {
            if is_write {
                writes[idx] += 1;
            } else {
                reads[idx] += 1;
            }
        });
        assert!(writes.iter().all(|&c| c == 1), "{writes:?}");
        assert!(reads.iter().all(|&c| c == 1), "{reads:?}");
    }

    #[test]
    fn flop_accounting() {
        let mut stage = KernelStage::unit(Codelet::for_size(2));
        stage.loops.push(LoopDim {
            count: 4,
            in_stride: 2,
            out_stride: 2,
            tw_stride: 1,
        });
        assert_eq!(stage.flops(), 16);
        let mut with_tw = stage.clone();
        with_tw.twiddle = Some(Arc::new(vec![Cplx::ONE; 8]));
        assert_eq!(with_tw.flops(), 16 + 48);
    }
}
