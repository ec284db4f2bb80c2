#ifndef AWR_DATALOG_WELLFOUNDED_H_
#define AWR_DATALOG_WELLFOUNDED_H_

#include "awr/common/result.h"
#include "awr/datalog/database.h"
#include "awr/datalog/leastmodel.h"

namespace awr::datalog {

/// Well-founded / valid model evaluation via Van Gelder's alternating
/// fixpoint.
///
/// This is a direct implementation of the procedure the paper gives for
/// the valid model (§2.2): "At each step of the computation, we look at
/// all the possible derivations starting from the current set T of true
/// facts, where only facts not in T are allowed to be used negatively.
/// The facts that are not derivable in any such computation are
/// [certainly false and go to F]; the false facts in F and the true
/// facts in T are then used to derive new true facts ... the process is
/// repeated until no more true facts can be derived."
///
/// Concretely we iterate I_{k+1} = S(I_k) with I_0 = ∅, where S(J) is
/// the least model with negation frozen against J
/// (LeastModelWithFrozenNegation).  Even iterates increase toward the
/// set T of certainly-true facts; odd iterates decrease toward the set
/// of *possible* facts (complement of F).  The result is 3-valued:
/// `certain` = T, `possible` ⊇ certain, undefined in between.
///
/// Every step borrows one copy of `edb`, made once per evaluation, as
/// its base (see LeastModelWithFrozenNegation), and the loop keeps and
/// compares only the derived part of each iterate — the extents of the
/// rules' head predicates; the rest of every I_k (k >= 1) is the EDB.
/// I_0 = ∅ is the exception: it holds no EDB facts either, so in the
/// first step `not e(t)` holds for every t, EDB predicates included.
/// Full iterates are built only for a checkpoint capture and for the
/// returned model.
///
/// For non-stratified programs like the paper's WIN–MOVE game (Example
/// 3) the model is genuinely 3-valued; `ThreeValuedInterp::IsTwoValued`
/// is the executable notion of the program being *well-defined*.
///
/// The valid semantics of [Beeri–Ramakrishnan–Srivastava–Sudarshan 92]
/// extends the well-founded semantics on programs whose rule bodies mix
/// undefined facts in ways WFS scores undefined; on every program in
/// this repository's supported fragment (and every example in the
/// paper) the two coincide, which is why EvalValid is this computation.
/// The paper itself notes (§7) its results "can be easily adjusted" to
/// the well-founded or stable semantics.
Result<ThreeValuedInterp> EvalWellFounded(const Program& program,
                                          const Database& edb,
                                          const EvalOptions& opts = {});

/// Continues a well-founded evaluation from a snapshot previously
/// captured via EvalOptions::checkpoint: restores the alternation phase
/// (I_k, I_{k-1}) and, when the snapshot was taken inside an alternation
/// step, re-enters that step's least-model fixpoint mid-flight (see
/// snapshot::ResumeWellFounded for the validating entry point).
Result<ThreeValuedInterp> EvalWellFoundedFrom(
    const Program& program, const Database& edb, const EvalOptions& opts,
    const snapshot::EvalSnapshot& resume);

/// The valid model of a deductive program (paper §2.2).  See
/// EvalWellFounded for the computation and the precise relationship.
inline Result<ThreeValuedInterp> EvalValid(const Program& program,
                                           const Database& edb,
                                           const EvalOptions& opts = {}) {
  return EvalWellFounded(program, edb, opts);
}

}  // namespace awr::datalog

#endif  // AWR_DATALOG_WELLFOUNDED_H_
