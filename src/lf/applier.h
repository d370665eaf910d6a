#ifndef SNORKEL_LF_APPLIER_H_
#define SNORKEL_LF_APPLIER_H_

#include <memory>
#include <vector>

#include "core/label_matrix.h"
#include "data/candidate.h"
#include "lf/labeling_function.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace snorkel {

class CompiledLfProgram;
class ThreadPool;

/// One row of an LF-application request, by reference: the candidate to
/// label plus the index CandidateView::index() reports for it. The sharded
/// serving tier fans a request out as refs so sub-batches neither copy
/// candidates nor renumber them — an index-dependent LF (e.g. a crowd-vote
/// LF keyed on the stored row index) sees exactly the indices it would see
/// in the unsharded request.
struct CandidateRef {
  const Candidate* candidate = nullptr;
  size_t index = 0;
};

/// Builds the identity ref view of `candidates` (row i ↦ {&candidates[i], i}).
std::vector<CandidateRef> MakeCandidateRefs(
    const std::vector<Candidate>& candidates);

/// One request's rows in either form; row i is (candidate(i), index(i)).
/// Rows taken from an owned vector report their position as the index; ref
/// rows report refs[i].index. A view: the rows must outlive it.
struct RowSource {
  const Candidate* owned = nullptr;      // index(i) == i
  const CandidateRef* refs = nullptr;    // index(i) == refs[i].index
  size_t size = 0;

  static RowSource Of(const std::vector<Candidate>& candidates) {
    return RowSource{candidates.data(), nullptr, candidates.size()};
  }
  static RowSource Of(const std::vector<CandidateRef>& rows) {
    return RowSource{nullptr, rows.data(), rows.size()};
  }

  const Candidate& candidate(size_t i) const {
    return owned != nullptr ? owned[i] : *refs[i].candidate;
  }
  size_t index(size_t i) const {
    return owned != nullptr ? i : refs[i].index;
  }
};

/// One label column for ApplyColumns: LF position `lf_index` votes into
/// labels[i] for rows [start_row, rows.size); rows below start_row are left
/// as they are (serve/incremental_applier.h keeps a cached prefix there).
struct ColumnTask {
  size_t lf_index = 0;
  Label* labels = nullptr;
  size_t start_row = 0;
};

/// Applies a labeling-function set over a candidate set to produce the label
/// matrix Λ. Candidates are independent, so application is embarrassingly
/// parallel (paper Appendix C "Execution Model"); the applier shards the
/// candidate range over a thread pool, the single-node analog of the paper's
/// multiprocessing / Spark layers.
///
/// ApplyColumns is the one LF application loop, for training and serving
/// alike: Apply/ApplyRefs run it with one column per LF position, and the
/// serving column cache (serve/incremental_applier.h) runs it over just the
/// columns and rows it could not reuse. Bitwise-identical output on every
/// path, so cached columns and freshly applied ones are interchangeable.
class LFApplier {
 public:
  struct Options {
    /// Worker threads; 0 = hardware concurrency, 1 = serial.
    size_t num_threads = 0;
    /// Cardinality of the resulting matrix (2 = binary ±1).
    int cardinality = 2;
    /// Dispatch compilable LFs through the batch engine (lf/compiled/):
    /// one shared automaton scan per distinct sentence instead of
    /// string/stem/hash work per LF per candidate. Output is bitwise
    /// identical to the interpreted path; uncompilable LFs always run
    /// interpreted.
    bool use_compiled = true;
    /// Pre-built program (e.g. mmap-loaded from a snapshot's LFCP section).
    /// Used when it matches the applied LF set fingerprint-for-fingerprint;
    /// otherwise the applier compiles (memoized process-wide) on first use.
    std::shared_ptr<const CompiledLfProgram> compiled_program = nullptr;
  };

  /// `num_threads > 1` creates this applier's dedicated pool ONCE, here —
  /// never per Apply call (a per-call pool paid thread start-up on every
  /// serving request; see serve/incremental_applier.h). `num_threads == 0`
  /// routes every apply through the process-wide SharedThreadPool().
  explicit LFApplier(Options options);
  LFApplier() : LFApplier(Options{}) {}

  // Out-of-line: the dedicated pool is an incomplete type here.
  LFApplier(LFApplier&&) noexcept;
  LFApplier& operator=(LFApplier&&) noexcept;
  ~LFApplier();

  /// Runs every LF on every candidate. Votes outside the valid label range
  /// for the configured cardinality surface as an InvalidArgument error
  /// (a buggy LF should fail loudly, not corrupt Λ).
  ///
  /// `cancel` (optional) is a cooperative cancellation token checked at row
  /// chunk boundaries; an expired token aborts the remaining rows and the
  /// call returns kDeadlineExceeded instead of burning CPU on an answer
  /// nobody is waiting for. Work that completed before expiry still returns
  /// its matrix.
  Result<LabelMatrix> Apply(const LabelingFunctionSet& lfs,
                            const Corpus& corpus,
                            const std::vector<Candidate>& candidates,
                            const CancelToken* cancel = nullptr) const;

  /// Same, over borrowed rows: matrix row i is rows[i].candidate, and each
  /// LF's CandidateView reports rows[i].index. The referenced candidates
  /// must stay alive for the duration of the call.
  Result<LabelMatrix> ApplyRefs(const LabelingFunctionSet& lfs,
                                const Corpus& corpus,
                                const std::vector<CandidateRef>& rows,
                                const CancelToken* cancel = nullptr) const;

  /// Same, over either row form.
  Result<LabelMatrix> ApplyRows(const LabelingFunctionSet& lfs,
                                const Corpus& corpus, RowSource rows,
                                const CancelToken* cancel = nullptr) const;

  /// The row loop: fills every task's column over its rows. Compiled
  /// dispatch scans each distinct sentence of the rows any task needs once;
  /// every row then answers its tasks from the hit stream or the
  /// interpreter. Returns InvalidArgument naming the first LF that voted
  /// out of range, or kDeadlineExceeded when `cancel` expired mid-loop; the
  /// task columns are then partly filled and must be discarded.
  Status ApplyColumns(const LabelingFunctionSet& lfs, const Corpus& corpus,
                      RowSource rows, const std::vector<ColumnTask>& tasks,
                      const CancelToken* cancel = nullptr) const;

  /// Λ (`rows` rows, one LF per entry of `columns`) from one column of
  /// `rows` labels per LF position.
  Result<LabelMatrix> Assemble(size_t rows,
                               const std::vector<const Label*>& columns) const;

 private:
  Options options_;
  /// Dedicated workers when num_threads > 1; null otherwise (serial, or the
  /// shared pool).
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace snorkel

#endif  // SNORKEL_LF_APPLIER_H_
