#include "lf/applier.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <tuple>

#include "lf/compiled/engine.h"
#include "lf/compiled/program.h"
#include "util/thread_pool.h"

namespace snorkel {

LFApplier::LFApplier(Options options)
    : options_(options), pool_(MakeDedicatedPool(options.num_threads)) {}

LFApplier::LFApplier(LFApplier&&) noexcept = default;
LFApplier& LFApplier::operator=(LFApplier&&) noexcept = default;
LFApplier::~LFApplier() = default;

std::vector<CandidateRef> MakeCandidateRefs(
    const std::vector<Candidate>& candidates) {
  std::vector<CandidateRef> refs(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    refs[i] = CandidateRef{&candidates[i], i};
  }
  return refs;
}

Result<LabelMatrix> LFApplier::Apply(
    const LabelingFunctionSet& lfs, const Corpus& corpus,
    const std::vector<Candidate>& candidates, const CancelToken* cancel) const {
  return ApplyRows(lfs, corpus, RowSource::Of(candidates), cancel);
}

Result<LabelMatrix> LFApplier::ApplyRefs(
    const LabelingFunctionSet& lfs, const Corpus& corpus,
    const std::vector<CandidateRef>& rows, const CancelToken* cancel) const {
  return ApplyRows(lfs, corpus, RowSource::Of(rows), cancel);
}

Result<LabelMatrix> LFApplier::ApplyRows(const LabelingFunctionSet& lfs,
                                         const Corpus& corpus, RowSource rows,
                                         const CancelToken* cancel) const {
  const size_t m = rows.size;
  const size_t n = lfs.size();
  // One column per LF position, even where two positions share a
  // fingerprint: Λ has exactly the columns of the LF set.
  std::vector<Label> labels(m * n, kAbstain);
  std::vector<ColumnTask> tasks(n);
  std::vector<const Label*> columns(n);
  for (size_t j = 0; j < n; ++j) {
    tasks[j] = ColumnTask{j, labels.data() + j * m, 0};
    columns[j] = tasks[j].labels;
  }
  Status status = ApplyColumns(lfs, corpus, rows, tasks, cancel);
  if (!status.ok()) return status;
  return Assemble(m, columns);
}

Status LFApplier::ApplyColumns(const LabelingFunctionSet& lfs,
                               const Corpus& corpus, RowSource rows,
                               const std::vector<ColumnTask>& tasks,
                               const CancelToken* cancel) const {
  const size_t m = rows.size;
  size_t min_start = m;
  for (const ColumnTask& task : tasks) {
    min_start = std::min(min_start, task.start_row);
  }

  // Compiled dispatch: one serial pass scans every distinct sentence of the
  // rows to compute through the program's shared automata, then the
  // parallel loop below answers compiled columns from the hit stream and
  // only interprets the rest.
  std::shared_ptr<const CompiledLfProgram> program;
  if (options_.use_compiled) {
    if (options_.compiled_program &&
        ProgramMatchesLfSet(*options_.compiled_program, lfs)) {
      program = options_.compiled_program;
    } else {
      program = GetOrCompileProgram(lfs);
    }
    const bool any_compiled_task =
        std::any_of(tasks.begin(), tasks.end(), [&](const ColumnTask& task) {
          return program->slot_of_lf[task.lf_index] >= 0;
        });
    if (!any_compiled_task) program = nullptr;
  }
  std::optional<CompiledLfBatch> batch;
  if (program != nullptr && min_start < m) {
    std::vector<const Candidate*> candidates(m, nullptr);
    for (size_t i = min_start; i < m; ++i) {
      candidates[i] = &rows.candidate(i);
    }
    batch.emplace(program, corpus, candidates, min_start);
  }

  // Votes are checked against the shared validity rule (core/types.h) as
  // they are produced, so a buggy LF fails the call with ITS name attached
  // (first offender wins) instead of an anonymous matrix-construction error.
  std::atomic<bool> has_error{false};
  std::atomic<size_t> error_col{0};
  std::atomic<Label> error_label{0};
  // Set iff at least one row was skipped because the caller's deadline
  // expired mid-apply — the signal that the result below must be a typed
  // kDeadlineExceeded, not a silently truncated column.
  std::atomic<bool> cancelled{false};
  auto apply_row = [&](size_t i) {
    // Cooperative cancellation, throttled: the token's latch makes the
    // check a relaxed load after first expiry, and probing the clock only
    // every 64 rows keeps the healthy path free of clock reads.
    if ((i & 63) == 0 && cancel != nullptr && cancel->Expired()) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    if (cancelled.load(std::memory_order_relaxed)) return;
    CandidateView view(&corpus, &rows.candidate(i), rows.index(i));
    for (const ColumnTask& task : tasks) {
      if (i < task.start_row) continue;
      int32_t slot = batch ? program->slot_of_lf[task.lf_index] : -1;
      Label label = slot >= 0 ? batch->Eval(static_cast<uint32_t>(slot), i)
                              : lfs.at(task.lf_index).Apply(view);
      if (!LabelValidFor(label, options_.cardinality)) {
        bool expected = false;
        if (has_error.compare_exchange_strong(expected, true)) {
          error_col.store(task.lf_index);
          error_label.store(label);
        }
        return;
      }
      task.labels[i] = label;
    }
  };

  // Shared applier threading convention (util/thread_pool.h): serial
  // inline, this applier's lifetime pool, or the process-wide pool — never
  // a pool spun up per call.
  ParallelApplyRows(pool_.get(), options_.num_threads, min_start, m,
                    apply_row);

  if (has_error.load()) {
    return Status::InvalidArgument(
        "LF '" + lfs.at(error_col.load()).name() + "' voted " +
        std::to_string(error_label.load()) + ", invalid for cardinality " +
        std::to_string(options_.cardinality));
  }
  if (cancelled.load()) {
    return Status::DeadlineExceeded(
        "request deadline expired during LF application; remaining rows "
        "cancelled");
  }
  return Status::OK();
}

Result<LabelMatrix> LFApplier::Assemble(
    size_t rows, const std::vector<const Label*>& columns) const {
  // FromTriplets re-validates structurally (belt and suspenders).
  std::vector<std::tuple<size_t, size_t, Label>> triplets;
  for (size_t j = 0; j < columns.size(); ++j) {
    const Label* column = columns[j];
    for (size_t i = 0; i < rows; ++i) {
      if (column[i] != kAbstain) triplets.emplace_back(i, j, column[i]);
    }
  }
  return LabelMatrix::FromTriplets(rows, columns.size(), triplets,
                                   options_.cardinality);
}

}  // namespace snorkel
