#include "exec/checkpoint.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "exec/scheduler.h"

namespace seq {

void OpStateWriter::Val(const Value& v) {
  U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case TypeId::kInt64:
      I64(v.int64());
      break;
    case TypeId::kDouble:
      F64(v.dbl());
      break;
    case TypeId::kBool:
      U8(v.boolean() ? 1 : 0);
      break;
    case TypeId::kString: {
      std::string_view s = v.str_view();
      I64(static_cast<int64_t>(s.size()));
      blob_.append(s);
      break;
    }
  }
}

bool OpStateReader::U8(uint8_t* v) { return ReadPod(v); }
bool OpStateReader::I64(int64_t* v) { return ReadPod(v); }
bool OpStateReader::F64(double* v) { return ReadPod(v); }

bool OpStateReader::Val(Value* v) {
  uint8_t tag = 0;
  if (!U8(&tag) || tag > static_cast<uint8_t>(TypeId::kString)) return false;
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kInt64: {
      int64_t x;
      if (!I64(&x)) return false;
      *v = Value::Int64(x);
      return true;
    }
    case TypeId::kDouble: {
      double x;
      if (!F64(&x)) return false;
      *v = Value::Double(x);
      return true;
    }
    case TypeId::kBool: {
      uint8_t x;
      if (!U8(&x)) return false;
      *v = Value::Bool(x != 0);
      return true;
    }
    case TypeId::kString: {
      int64_t len;
      if (!I64(&len) || len < 0 ||
          static_cast<size_t>(len) > blob_.size() - off_) {
        return false;
      }
      *v = Value::String(blob_.substr(off_, static_cast<size_t>(len)));
      off_ += static_cast<size_t>(len);
      return true;
    }
  }
  return false;
}

const char* SuspendReasonName(SuspendReason reason) {
  switch (reason) {
    case SuspendReason::kUser:
      return "user request";
    case SuspendReason::kScheduler:
      return "scheduler preemption";
    case SuspendReason::kCacheBudget:
      return "cache memory budget";
  }
  return "unknown";
}

Status MakeQuerySuspended(const std::string& path, SuspendReason reason) {
  std::ostringstream oss;
  oss << kQuerySuspendedPrefix << path << "' (" << SuspendReasonName(reason)
      << ")";
  return Status::Unavailable(oss.str());
}

bool IsQuerySuspended(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         status.message().rfind(kQuerySuspendedPrefix, 0) == 0;
}

std::string SuspendedCheckpointPath(const Status& status) {
  if (!IsQuerySuspended(status)) return "";
  const std::string& msg = status.message();
  const size_t begin = std::string(kQuerySuspendedPrefix).size();
  const size_t end = msg.rfind('\'');
  if (end == std::string::npos || end <= begin) return "";
  return msg.substr(begin, end - begin);
}

namespace {

Status InjectedCheckpointFault(FaultInjector* faults, FaultSite site) {
  std::ostringstream oss;
  oss << "injected fault at " << FaultSiteName(site)
      << " [op=Checkpoint hit=" << faults->hits(site) << "]";
  return Status::DataLoss(oss.str());
}

}  // namespace

std::function<Status()> CheckpointWriteFaultHook(FaultInjector* faults) {
  if (faults == nullptr) return {};
  return [faults] {
    if (!faults->Poll(FaultSite::kCheckpointWrite)) return Status::OK();
    return InjectedCheckpointFault(faults, FaultSite::kCheckpointWrite);
  };
}

std::function<Status()> CheckpointReadFaultHook(FaultInjector* faults) {
  if (faults == nullptr) return {};
  return [faults] {
    if (!faults->Poll(FaultSite::kCheckpointRead)) return Status::OK();
    return InjectedCheckpointFault(faults, FaultSite::kCheckpointRead);
  };
}

const std::string& DefaultCheckpointDir() {
  static const std::string kDir = [] {
    const char* env = std::getenv("SEQ_CHECKPOINT_DIR");
    if (env == nullptr || env[0] == '\0') return std::string(".");
    struct stat st{};
    if (::stat(env, &st) == 0 && S_ISDIR(st.st_mode)) {
      return std::string(env);
    }
    std::fprintf(stderr,
                 "seq: SEQ_CHECKPOINT_DIR='%s' is not an existing "
                 "directory; using '.'\n",
                 env);
    return std::string(".");
  }();
  return kDir;
}

int64_t DefaultCheckpointChunk() {
  static const int64_t kChunk =
      ValidatedEnvInt("SEQ_CHECKPOINT_CHUNK", /*min_value=*/64,
                      /*fallback=*/1024);
  return kChunk;
}

}  // namespace seq
