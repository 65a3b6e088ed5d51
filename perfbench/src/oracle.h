#ifndef SEQ_PERFBENCH_ORACLE_H_
#define SEQ_PERFBENCH_ORACLE_H_

// Correctness gate: answers checked against the paper-semantics reference
// evaluator (tests/reference_eval.h) on small ranges, plus a self-test
// that shows the comparison rejects a corrupted answer.

#include <string>
#include <vector>

#include "core/session.h"
#include "workloads.h"

namespace seq::perfbench {

/// Position-exact comparison; doubles agree within 1e-6 relative (the
/// oracle suites' tolerance), every other value exactly.
bool SameAnswer(const std::vector<PosRecord>& got,
                const std::vector<PosRecord>& want, std::string* why);

/// Runs `request` restricted to `range` through `session` (materialized,
/// no sink) and compares it with the reference evaluator over the
/// session engine's catalog. Returns false with `why` on any mismatch or
/// error; the engine's answer is left in `rows`.
bool OracleCheck(LocalSession* session, const Request& request, Span range,
                 std::vector<PosRecord>* rows, std::string* why);

/// Corrupts one row of a copy of `rows` and returns true when SameAnswer
/// rejects it (the gate can fail). `rows` must be non-empty.
bool SelfTestRejectsCorruption(const std::vector<PosRecord>& rows);

}  // namespace seq::perfbench

#endif  // SEQ_PERFBENCH_ORACLE_H_
