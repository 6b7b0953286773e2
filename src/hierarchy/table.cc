#include "hierarchy/table.h"

#include <sstream>

#include "checker/consensus_check.h"
#include "checker/protocols.h"
#include "util/checked.h"

namespace bss::hierarchy {

namespace {

const std::vector<int> kBinary{0, 1};

bool solves(const check::Protocol& protocol, int n) {
  return check::check_consensus(protocol,
                                check::all_input_vectors(n, kBinary))
      .solves;
}

std::string violation_name(check::Violation violation) {
  switch (violation) {
    case check::Violation::kAgreement:
      return "agreement";
    case check::Violation::kValidity:
      return "validity";
    case check::Violation::kNonTermination:
      return "wait-freedom";
    case check::Violation::kStuck:
      return "stuck";
    case check::Violation::kStateBudget:
      return "budget";
    case check::Violation::kNone:
      return "none";
  }
  return "?";
}

std::string refutation(const check::Protocol& protocol, int n) {
  const auto result = check::check_consensus(
      protocol, check::all_input_vectors(n, kBinary));
  expects(!result.solves,
          [&] { return "expected the checker to refute " + protocol.name(); });
  return protocol.name() + " fails " + violation_name(result.violation) +
         " at n=" + std::to_string(n);
}

}  // namespace

std::vector<HierarchyRow> build_hierarchy_table() {
  std::vector<HierarchyRow> rows;

  {
    HierarchyRow row;
    row.object = "read/write registers";
    row.consensus_number = "1";
    row.certified = "trivial n=1";
    check::RwWriteReadConsensus write_read;
    check::RwSpinConsensus spin;
    row.refuted = refutation(write_read, 2) + "; " + refutation(spin, 2);
    rows.push_back(std::move(row));
  }
  {
    HierarchyRow row;
    row.object = "test&set";
    row.consensus_number = "2";
    check::TasConsensus2 tas2;
    expects(solves(tas2, 2), "tas-2 must be certified");
    row.certified = "tas-2 certified at n=2";
    check::TasSpinConsensus3 tas3;
    row.refuted = refutation(tas3, 3);
    rows.push_back(std::move(row));
  }
  {
    HierarchyRow row;
    row.object = "swap register";
    row.consensus_number = "2";
    check::SwapConsensusN swap2(2);
    expects(solves(swap2, 2), "swap-2 must be certified");
    row.certified = "swap-n2 certified at n=2";
    check::SwapConsensusN swap3(3);
    row.refuted = refutation(swap3, 3);
    rows.push_back(std::move(row));
  }
  {
    HierarchyRow row;
    row.object = "compare&swap-(k), one object";
    row.consensus_number = "k-1 (without r/w helpers beyond announce)";
    std::ostringstream certified;
    for (const int k : {3, 4, 5}) {
      check::CasConsensusK cas(k - 1, k);
      expects(solves(cas, k - 1), "cas boundary certification failed");
      certified << "n=" << k - 1 << " with k=" << k << "; ";
    }
    row.certified = certified.str();
    check::CasConsensusK overloaded(4, 4);
    row.refuted = refutation(overloaded, 4);
    rows.push_back(std::move(row));
  }
  {
    HierarchyRow row;
    row.object = "compare&swap (unbounded)";
    row.consensus_number = "inf";
    std::ostringstream certified;
    for (int n = 2; n <= 4; ++n) {
      check::CasConsensusK cas(n, n + 1);
      expects(solves(cas, n), "unbounded-cas certification failed");
      certified << "n=" << n << "; ";
    }
    certified << "(k grows with n: the paper's point)";
    row.certified = certified.str();
    row.refuted = "-";
    rows.push_back(std::move(row));
  }
  {
    HierarchyRow row;
    row.object = "sticky register";
    row.consensus_number = "inf";
    std::ostringstream certified;
    for (int n = 2; n <= 4; ++n) {
      check::StickyConsensus sticky(n);
      expects(solves(sticky, n), "sticky certification failed");
      certified << "n=" << n << "; ";
    }
    row.certified = certified.str();
    row.refuted = "-";
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string render_hierarchy_table(const std::vector<HierarchyRow>& rows) {
  std::ostringstream out;
  out << "object                              | consensus # | certified / refuted\n";
  out << "------------------------------------+-------------+--------------------\n";
  for (const auto& row : rows) {
    std::string object = row.object;
    object.resize(36, ' ');
    std::string number = row.consensus_number;
    if (number.size() < 11) number.resize(11, ' ');
    out << object << "| " << number << " | " << row.certified << "\n";
    if (row.refuted != "-") {
      out << std::string(36, ' ') << "| " << std::string(11, ' ') << " | "
          << row.refuted << "\n";
    }
  }
  return out.str();
}

}  // namespace bss::hierarchy
