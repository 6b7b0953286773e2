#include "registers/snapshot.h"

#include <string>

#include "registers/footprint.h"
#include "util/checked.h"

namespace bss::sim {

BSS_FOOTPRINT(AtomicSnapshot, read, write);

AtomicSnapshot::AtomicSnapshot(std::string_view name, int n,
                               bool enforce_single_writer)
    : name_(name),
      n_(n),
      enforce_single_writer_(enforce_single_writer),
      cells_(static_cast<std::size_t>(n)),
      owners_(static_cast<std::size_t>(n), -1) {
  expects(n >= 1, "snapshot needs at least one component");
  cell_names_.reserve(cells_.size());
  for (int i = 0; i < n; ++i) {
    cell_names_.emplace_back(std::string(name) + "[" + std::to_string(i) +
                             "]");
  }
}

std::vector<AtomicSnapshot::Cell> AtomicSnapshot::collect(Ctx& ctx) const {
  std::vector<Cell> copy(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    const ObjectName cell = cell_names_[static_cast<std::size_t>(i)];
    ctx.sync({cell, "read", 0, 0});
    ctx.access_token().read(cell);
    copy[static_cast<std::size_t>(i)] = cells_[static_cast<std::size_t>(i)];
    const auto pid = static_cast<std::size_t>(ctx.pid());
    if (last_scan_reads_.size() <= pid) last_scan_reads_.resize(pid + 1, 0);
    ++last_scan_reads_[pid];
  }
  return copy;
}

void AtomicSnapshot::update(Ctx& ctx, int component, std::int64_t value) {
  expects(component >= 0 && component < n_, "snapshot component out of range");
  if (enforce_single_writer_) {
    int& owner = owners_[static_cast<std::size_t>(component)];
    if (owner == -1) owner = ctx.pid();
    expects(owner == ctx.pid(),
            "snapshot component updated by a second writer");
  }
  // Embed a scan so that slow scanners can borrow a view from a fast
  // updater; this is what makes scan() wait-free.
  std::vector<std::int64_t> view = scan(ctx);
  Cell& cell = cells_[static_cast<std::size_t>(component)];
  const ObjectName cell_name = cell_names_[static_cast<std::size_t>(component)];
  ctx.sync({cell_name, "write", value, 0});
  ctx.access_token().write(cell_name);
  cell.value = value;
  ++cell.seq;
  cell.writer = ctx.pid();
  cell.view = std::move(view);
}

std::vector<std::int64_t> AtomicSnapshot::scan(Ctx& ctx) const {
  {
    const auto pid = static_cast<std::size_t>(ctx.pid());
    if (last_scan_reads_.size() <= pid) last_scan_reads_.resize(pid + 1, 0);
    last_scan_reads_[pid] = 0;
  }
  std::vector<bool> moved(static_cast<std::size_t>(n_), false);
  std::vector<Cell> previous = collect(ctx);
  for (;;) {
    std::vector<Cell> current = collect(ctx);
    bool identical = true;
    for (int i = 0; i < n_; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (previous[idx].seq != current[idx].seq) {
        identical = false;
        if (moved[idx]) {
          // Component i moved twice inside our window; its embedded view was
          // produced entirely within the window, hence linearizable here.
          return current[idx].view;
        }
        moved[idx] = true;
      }
    }
    if (identical) {
      std::vector<std::int64_t> values(static_cast<std::size_t>(n_));
      for (int i = 0; i < n_; ++i) {
        values[static_cast<std::size_t>(i)] =
            current[static_cast<std::size_t>(i)].value;
      }
      return values;
    }
    previous = std::move(current);
  }
}

std::vector<std::int64_t> AtomicSnapshot::peek() const {
  std::vector<std::int64_t> values(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    values[static_cast<std::size_t>(i)] =
        cells_[static_cast<std::size_t>(i)].value;
  }
  return values;
}

std::uint64_t AtomicSnapshot::reads_in_last_scan(int pid) const {
  const auto index = static_cast<std::size_t>(pid);
  return index < last_scan_reads_.size() ? last_scan_reads_[index] : 0;
}

}  // namespace bss::sim
