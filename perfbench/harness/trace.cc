#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

/// Appends `s` as a JSON string literal.
void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out->append(buffer);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

Tracer::Tracer(const mmlib::simnet::Network* network)
    : network_(network), wall_origin_ns_(SteadyNowNs()) {}

uint64_t Tracer::WallNow() const { return SteadyNowNs() - wall_origin_ns_; }

uint64_t Tracer::VirtualNow() const {
  if (network_ == nullptr) {
    return 0;
  }
  return static_cast<uint64_t>(
      std::llround(network_->TotalTransferSeconds() * 1e9));
}

uint64_t Tracer::Begin(std::string name) {
  const uint64_t virtual_now = VirtualNow();
  const uint64_t wall_now = WallNow();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::move(name);
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : open_.back();
  span.wall_start_ns = wall_now;
  span.virtual_start_ns = virtual_now;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(uint64_t id) {
  const uint64_t wall_now = WallNow();
  const uint64_t virtual_now = VirtualNow();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it == open_.end()) {
    ++misnested_;
    return;
  }
  if (it + 1 != open_.end()) {
    ++misnested_;
  }
  open_.erase(it);
  Span& span = spans_[id - 1];
  span.wall_end_ns = wall_now;
  span.virtual_end_ns = virtual_now;
}

std::string Tracer::ChromeTraceJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buffer[320];
  bool first = true;
  for (const Span& span : spans_) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, span.name);
    std::snprintf(
        buffer, sizeof(buffer),
        ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"span_id\":%llu,\"parent_id\":%llu,"
        "\"wall_start_ns\":%llu,\"wall_ns\":%llu,"
        "\"virtual_start_ns\":%llu,\"virtual_ns\":%llu}}",
        span.wall_start_ns / 1e3, span.WallNs() / 1e3,
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(span.wall_start_ns),
        static_cast<unsigned long long>(span.WallNs()),
        static_cast<unsigned long long>(span.virtual_start_ns),
        static_cast<unsigned long long>(span.VirtualNs()));
    out += buffer;
  }
  out += "]}\n";
  return out;
}

uint64_t SelfWallNs(const std::vector<Span>& spans, uint64_t id) {
  const Span& parent = spans.at(id - 1);
  std::vector<std::pair<uint64_t, uint64_t>> children;
  // Spans are stored in begin order, so children follow their parent.
  for (size_t i = id; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.wall_start_ns >= parent.wall_end_ns) {
      break;
    }
    if (span.parent == id) {
      const uint64_t begin = std::max(span.wall_start_ns, parent.wall_start_ns);
      const uint64_t end = std::min(span.wall_end_ns, parent.wall_end_ns);
      if (begin < end) {
        children.emplace_back(begin, end);
      }
    }
  }
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t cursor = parent.wall_start_ns;
  for (const auto& [begin, end] : children) {
    const uint64_t from = std::max(begin, cursor);
    if (end > from) {
      covered += end - from;
      cursor = end;
    }
  }
  return parent.WallNs() - covered;
}

uint64_t ChildWallNs(const std::vector<Span>& spans, uint64_t id,
                     const std::string& prefix) {
  const Span& parent = spans.at(id - 1);
  uint64_t total = 0;
  for (size_t i = id; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.wall_start_ns >= parent.wall_end_ns) {
      break;
    }
    if (span.parent == id &&
        span.name.compare(0, prefix.size(), prefix) == 0) {
      total += span.WallNs();
    }
  }
  return total;
}

}  // namespace perfbench
