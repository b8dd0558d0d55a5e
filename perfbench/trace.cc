#include "perfbench/trace.h"

namespace perfbench {

void Tracer::AddSelfSeconds(std::map<std::string, double>* self_s) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    (*self_s)[std::string(span.name) + "_s"] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
  }
}

}  // namespace perfbench
