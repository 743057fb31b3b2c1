#include "tracer.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

double Tracer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::begin(const char* name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now_s(), 0.0, parent});
  const int idx = static_cast<int>(spans_.size() - 1);
  open_.push_back(idx);
  return idx;
}

void Tracer::end(int idx) {
  if (idx < 0) return;
  spans_[static_cast<std::size_t>(idx)].end_s = now_s();
  // Scopes nest, so the span being closed is the innermost open one.
  open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  // Children run one after another inside their parent on this thread, so
  // the part of a parent they cover is the sum of their durations.
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_cover[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const char* dot = std::strchr(spans_[i].name, '.');
    const std::string layer =
        dot == nullptr ? std::string(spans_[i].name)
                       : std::string(spans_[i].name, dot);
    self[layer] += spans_[i].end_s - spans_[i].start_s - child_cover[i];
  }
  return self;
}

double Tracer::root_seconds() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_s - s.start_s;
  }
  return total;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
