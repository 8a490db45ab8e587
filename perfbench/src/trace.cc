#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

int Tracer::Intern(const std::string& name) {
  auto it = name_index_.find(name);
  if (it != name_index_.end()) return it->second;
  const int index = static_cast<int>(names_.size());
  names_.push_back(name);
  name_index_.emplace(name, index);
  return index;
}

void Tracer::Add(std::uint64_t id, std::uint64_t parent, std::uint64_t request,
                 const std::string& name, Clock::time_point start,
                 Clock::time_point end) {
  auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  spans_.push_back(Span{id, parent, request, Intern(name), ns(start), ns(end)});
}

Samples Tracer::Durations(const std::string& name) const {
  Samples out;
  auto it = name_index_.find(name);
  if (it == name_index_.end()) return out;
  for (const Span& s : spans_) {
    if (s.name == it->second) out.Add((s.end_ns - s.start_ns) / 1000.0);
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "request,id,parent,name,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
