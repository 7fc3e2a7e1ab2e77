#include "coalesce/coalescer.h"

#include <algorithm>
#include <utility>

#include "util/contracts.h"

namespace horam::coalesce {

void round_table::add(std::uint64_t tag, request&& req) {
  expects(admits(req.id), "round_table::add past capacity");
  const std::size_t admission = members_++;

  const auto it = index_.find(req.id);
  if (it == index_.end()) {
    // First touch of this block in the round: the request becomes the
    // group's physical access verbatim.
    member first;
    first.tag = tag;
    first.user = req.user;
    first.admission = admission;
    first.source = req.op == oram::op_kind::write ? member_source::write
                                                  : member_source::physical;
    group fresh;
    fresh.physical = std::move(req);
    fresh.members.push_back(std::move(first));
    index_.emplace(fresh.physical.id, groups_.size());
    groups_.push_back(std::move(fresh));
    return;
  }

  group& g = groups_[it->second];
  member entry;
  entry.tag = tag;
  entry.user = req.user;
  entry.admission = admission;
  if (req.op == oram::op_kind::read) {
    if (g.physical.op == oram::op_kind::write) {
      // Read after write: serialized execution would return the latest
      // write's data, which is sitting in the combined physical request
      // right now — capture it (forwarding), no extra access.
      entry.source = member_source::forwarded;
      entry.forward_data = g.physical.write_data;
    } else {
      // Read-read merge: ride the shared physical read.
      entry.source = member_source::physical;
    }
  } else {
    entry.source = member_source::write;
    if (g.physical.op == oram::op_kind::read) {
      // A write joins a group of readers: the physical access becomes a
      // read-modify-write so the earlier readers still get the pre-write
      // payload from the same single access.
      g.physical.op = oram::op_kind::write;
      g.physical.fetch_before_write = true;
    }
    // Last-writer-wins (scheduler pop order) write combining.
    g.physical.write_data = std::move(req.write_data);
  }
  g.members.push_back(std::move(entry));
}

std::vector<group> round_table::take() {
  index_.clear();
  members_ = 0;
  return std::exchange(groups_, {});
}

void completion_order::assign(std::span<const group> groups,
                              std::span<const sim::sim_time> group_times) {
  expects(groups.size() == group_times.size(),
          "completion_order needs one time per group");
  entries_.clear();
  for (std::size_t i = 0; i < groups.size(); ++i) {
    for (const member& m : groups[i].members) {
      entries_.push_back(entry{m.user, m.admission, group_times[i]});
    }
  }
  // Each user's members in admission order; within a user, a member
  // completes no earlier than the one admitted before it.
  std::sort(entries_.begin(), entries_.end(),
            [](const entry& a, const entry& b) {
              return a.user != b.user ? a.user < b.user
                                      : a.admission < b.admission;
            });
  times_.resize(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const entry& e = entries_[i];
    invariant(e.admission < times_.size(), "admission index out of range");
    sim::sim_time time = e.group_time;
    if (i > 0 && entries_[i - 1].user == e.user) {
      time = std::max(time, times_[entries_[i - 1].admission]);
    }
    times_[e.admission] = time;
  }
}

void fan_out(
    group&& g, request_result&& physical,
    std::span<const sim::sim_time> member_times, std::size_t payload_bytes,
    const std::function<void(std::uint64_t tag, request_result&&)>&
        deliver) {
  invariant(!g.members.empty(), "fan_out of an empty group");
  for (std::size_t i = 0; i < g.members.size(); ++i) {
    member& m = g.members[i];
    request_result out;
    invariant(m.admission < member_times.size(),
              "fan_out admission index out of range");
    out.completion_time = member_times[m.admission];
    // The group's opener inherits the physical residency outcome;
    // absorbed members were served from the round table in trusted
    // memory — control-layer hits by construction.
    out.hit = i == 0 ? physical.hit : true;
    switch (m.source) {
      case member_source::physical:
        if (i + 1 == g.members.size()) {
          out.read_data = std::move(physical.read_data);
        } else {
          out.read_data = physical.read_data;
        }
        break;
      case member_source::forwarded:
        out.read_data = std::move(m.forward_data);
        out.read_data.resize(payload_bytes, 0);
        break;
      case member_source::write:
        break;  // writes return no payload
    }
    deliver(m.tag, std::move(out));
  }
}

}  // namespace horam::coalesce
