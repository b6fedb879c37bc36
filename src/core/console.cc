#include "core/console.h"

#include <sstream>
#include <utility>

#include "core/inspect.h"
#include "core/restore.h"
#include "core/verify.h"
#include "workload/analytics.h"
#include "workload/invariants.h"

namespace zerobak::core {

namespace {

constexpr char kHelpText[] =
    "commands:\n"
    "  deploy <ns>                     create namespace, PVCs, databases\n"
    "  order <ns> <count>              place business orders\n"
    "  run <ms>                        advance simulated time\n"
    "  tag <ns> / untag <ns>           configure / remove backup\n"
    "  status <ns>                     replication health\n"
    "  snapshot <ns> <group>           snapshot group on backup site\n"
    "  schedule <ns> <name> <ms> <n>   recurring snapshots, retain n\n"
    "  analytics <ns> <group>          run analytics on a snapshot\n"
    "  verify <ns> <group>             verify a backup is restorable\n"
    "  verify-latest <ns> <schedule>   verify newest scheduled backup\n"
    "  fail-main / repair-main         disaster injection\n"
    "  failover <ns> / failback <ns> [force]\n"
    "  restore <ns> <group>            rewind backup volumes to a snapshot\n"
    "  check <ns>                      recover backup DBs, check consistency\n"
    "  inspect                         dump the whole system state\n"
    "  metrics                         metric registry + RPO/RTO tracker\n"
    "  metrics-json                    same data as one JSON object\n"
    "  scrub                           at-rest integrity scrub status\n"
    "  trace [n]                       newest n trace events (default 20)\n"
    "  help\n";

}  // namespace

Console::Console(DemoSystem* system, std::ostream* out)
    : system_(system), out_(out) {}

db::DbOptions Console::DbOpts() {
  db::DbOptions opts;
  opts.checkpoint_blocks = 256;
  opts.wal_blocks = 1024;
  return opts;
}

std::vector<std::string> Console::Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

Status Console::ExecuteScript(const std::string& script) {
  std::istringstream in(script);
  std::string line;
  while (std::getline(in, line)) {
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    ZB_RETURN_IF_ERROR(Execute(line));
  }
  return OkStatus();
}

Status Console::Execute(const std::string& line) {
  const std::vector<std::string> args = Tokenize(line);
  if (args.empty()) return OkStatus();
  const std::string& cmd = args[0];
  ++commands_executed_;

  auto need = [&](size_t n) -> Status {
    if (args.size() < n + 1) {
      return InvalidArgumentError(cmd + ": expected " + std::to_string(n) +
                                  " argument(s); try 'help'");
    }
    return OkStatus();
  };

  if (cmd == "help") {
    *out_ << kHelpText;
    return OkStatus();
  }
  if (cmd == "inspect") {
    *out_ << DescribeSystem(system_);
    return OkStatus();
  }
  if (cmd == "metrics") {
    *out_ << DescribeObservability(system_);
    return OkStatus();
  }
  if (cmd == "metrics-json") {
    *out_ << ObservabilityJson(system_) << "\n";
    return OkStatus();
  }
  if (cmd == "scrub") {
    const replication::Scrubber* scrub = system_->replication()->scrubber();
    if (scrub == nullptr) {
      *out_ << "scrubbing disabled\n";
      return OkStatus();
    }
    const replication::ScrubConfig& cfg = scrub->config();
    const replication::ScrubStats& st = scrub->stats();
    *out_ << "scrub: " << (scrub->cycle_active() ? "scanning" : "idle")
          << " extent=" << cfg.extent_blocks << " blocks, "
          << cfg.max_extents_per_step << " extents/step, repair="
          << (cfg.repair ? "on" : "off") << "\n"
          << "  cycles=" << st.cycles_completed
          << " extents=" << st.extents_scanned
          << " blocks=" << st.blocks_scanned << "\n"
          << "  checksum_mismatches=" << st.checksum_mismatches
          << " media_errors=" << st.media_errors
          << " divergent=" << st.divergent_extents << "\n"
          << "  repairs_scheduled=" << st.repairs_scheduled
          << " primary_restores=" << st.primary_restores
          << " deferred=" << st.deferred_repairs
          << " unrecoverable=" << st.unrecoverable_extents << "\n";
    return OkStatus();
  }
  if (cmd == "trace") {
    size_t n = 20;
    if (args.size() > 1) {
      const long v = std::atol(args[1].c_str());
      if (v <= 0) return InvalidArgumentError("trace: bad count");
      n = static_cast<size_t>(v);
    }
    *out_ << system_->trace()->ToString(n);
    return OkStatus();
  }
  if (cmd == "deploy") {
    ZB_RETURN_IF_ERROR(need(1));
    return Deploy(args[1]);
  }
  if (cmd == "order") {
    ZB_RETURN_IF_ERROR(need(2));
    return Order(args[1], std::atoi(args[2].c_str()));
  }
  if (cmd == "run") {
    ZB_RETURN_IF_ERROR(need(1));
    const long ms = std::atol(args[1].c_str());
    if (ms <= 0) return InvalidArgumentError("run: bad duration");
    system_->env()->RunFor(Milliseconds(ms));
    *out_ << "t=" << FormatDuration(system_->env()->now()) << "\n";
    return OkStatus();
  }
  if (cmd == "tag") {
    ZB_RETURN_IF_ERROR(need(1));
    ZB_RETURN_IF_ERROR(system_->TagNamespaceForBackup(args[1]));
    ZB_RETURN_IF_ERROR(system_->WaitForBackupConfigured(args[1]));
    *out_ << "namespace " << args[1]
          << " protected (ADC + consistency group)\n";
    return OkStatus();
  }
  if (cmd == "untag") {
    ZB_RETURN_IF_ERROR(need(1));
    ZB_RETURN_IF_ERROR(system_->UntagNamespace(args[1]));
    system_->env()->RunFor(Milliseconds(100));
    *out_ << "namespace " << args[1] << " unprotected\n";
    return OkStatus();
  }
  if (cmd == "status") {
    ZB_RETURN_IF_ERROR(need(1));
    return PrintStatus(args[1]);
  }
  if (cmd == "snapshot") {
    ZB_RETURN_IF_ERROR(need(2));
    ZB_RETURN_IF_ERROR(system_->CreateSnapshotGroupCr(args[1], args[2]));
    ZB_RETURN_IF_ERROR(system_->WaitForSnapshotGroup(args[1], args[2]));
    *out_ << "snapshot group " << args[2] << " ready\n";
    return OkStatus();
  }
  if (cmd == "schedule") {
    ZB_RETURN_IF_ERROR(need(4));
    const long ms = std::atol(args[3].c_str());
    const long retain = std::atol(args[4].c_str());
    if (ms <= 0 || retain <= 0) {
      return InvalidArgumentError("schedule: bad interval/retain");
    }
    ZB_RETURN_IF_ERROR(system_->CreateSnapshotSchedule(
        args[1], args[2], Milliseconds(ms), retain));
    *out_ << "schedule " << args[2] << " every " << ms << "ms retain "
          << retain << "\n";
    return OkStatus();
  }
  if (cmd == "analytics") {
    ZB_RETURN_IF_ERROR(need(2));
    return Analytics(args[1], args[2]);
  }
  if (cmd == "verify" || cmd == "verify-latest") {
    ZB_RETURN_IF_ERROR(need(2));
    auto report = cmd == "verify"
                      ? VerifySnapshotGroup(system_, args[1], args[2])
                      : VerifyLatestScheduled(system_, args[1], args[2]);
    if (!report.ok()) return report.status();
    *out_ << report->ToString() << "\n";
    return report->passed()
               ? OkStatus()
               : DataLossError("backup verification failed");
  }
  if (cmd == "fail-main") {
    system_->FailMainSite();
    *out_ << "MAIN SITE FAILED (array down, links cut)\n";
    return OkStatus();
  }
  if (cmd == "repair-main") {
    system_->RepairMainSite();
    *out_ << "main site repaired\n";
    return OkStatus();
  }
  if (cmd == "failover") {
    ZB_RETURN_IF_ERROR(need(1));
    auto report = system_->Failover(args[1]);
    if (!report.ok()) return report.status();
    *out_ << "failover complete: lost " << report->lost_records
          << " in-flight records\n";
    return OkStatus();
  }
  if (cmd == "failback") {
    ZB_RETURN_IF_ERROR(need(1));
    const bool force = args.size() > 2 && args[2] == "force";
    auto report = system_->Failback(args[1], force);
    if (!report.ok()) return report.status();
    *out_ << "failback complete: shipped " << report->blocks_shipped
          << " blocks";
    if (report->conflicts_overwritten > 0) {
      *out_ << " (" << report->conflicts_overwritten
            << " conflicts, backup won)";
    }
    *out_ << "\n";
    return OkStatus();
  }
  if (cmd == "restore") {
    ZB_RETURN_IF_ERROR(need(2));
    auto report = RestoreNamespaceFromGroup(system_, args[1], args[2]);
    if (!report.ok()) return report.status();
    *out_ << "restored " << report->volumes_restored << " volumes from "
          << args[2] << " (" << report->blocks_rewritten
          << " blocks rewritten)\n";
    return OkStatus();
  }
  if (cmd == "check") {
    ZB_RETURN_IF_ERROR(need(1));
    return CheckBackup(args[1]);
  }
  return InvalidArgumentError("unknown command '" + cmd +
                              "'; try 'help'");
}

Status Console::Deploy(const std::string& ns) {
  if (businesses_.contains(ns)) {
    return AlreadyExistsError("namespace " + ns + " already deployed");
  }
  ZB_RETURN_IF_ERROR(system_->CreateBusinessNamespace(ns));
  ZB_RETURN_IF_ERROR(system_->CreatePvc(ns, "sales-db", 8 << 20));
  ZB_RETURN_IF_ERROR(system_->CreatePvc(ns, "stock-db", 8 << 20));
  system_->env()->RunFor(Milliseconds(10));

  Business business;
  ZB_ASSIGN_OR_RETURN(storage::VolumeId sales_vol,
                      system_->ResolveMainVolume(ns, "sales-db"));
  ZB_ASSIGN_OR_RETURN(storage::VolumeId stock_vol,
                      system_->ResolveMainVolume(ns, "stock-db"));
  business.sales_dev = std::make_unique<storage::ArrayVolumeDevice>(
      system_->main_site()->array(), sales_vol);
  business.stock_dev = std::make_unique<storage::ArrayVolumeDevice>(
      system_->main_site()->array(), stock_vol);
  ZB_RETURN_IF_ERROR(db::MiniDb::Format(business.sales_dev.get(), DbOpts()));
  ZB_RETURN_IF_ERROR(db::MiniDb::Format(business.stock_dev.get(), DbOpts()));
  ZB_ASSIGN_OR_RETURN(business.sales_db,
                      db::MiniDb::Open(business.sales_dev.get(), DbOpts()));
  ZB_ASSIGN_OR_RETURN(business.stock_db,
                      db::MiniDb::Open(business.stock_dev.get(), DbOpts()));
  business.app = std::make_unique<workload::EcommerceApp>(
      business.sales_db.get(), business.stock_db.get());
  ZB_RETURN_IF_ERROR(business.app->InitializeCatalog());
  businesses_.emplace(ns, std::move(business));
  *out_ << "deployed " << ns
        << ": 2 PVCs bound, databases formatted, catalog loaded\n";
  return OkStatus();
}

Status Console::Order(const std::string& ns, int count) {
  auto it = businesses_.find(ns);
  if (it == businesses_.end()) {
    return NotFoundError("namespace " + ns + " is not deployed here");
  }
  if (count <= 0) return InvalidArgumentError("order: bad count");
  for (int i = 0; i < count; ++i) {
    ZB_RETURN_IF_ERROR(it->second.app->PlaceOrder().status());
    system_->env()->RunFor(Microseconds(200));
  }
  *out_ << count << " orders placed (total "
        << it->second.app->orders_placed() << ")\n";
  return OkStatus();
}

Status Console::PrintStatus(const std::string& ns) {
  auto groups = system_->ReplicationGroupsOf(ns);
  if (!groups.ok()) {
    *out_ << ns << ": not protected\n";
    return OkStatus();
  }
  for (replication::GroupId gid : *groups) {
    auto stats = system_->replication()->GetGroupStats(gid);
    if (!stats.ok()) continue;
    auto name = system_->replication()->GetGroupName(gid);
    *out_ << ns << ": group " << (name.ok() ? *name : "?") << " written="
          << stats->written << " shipped=" << stats->shipped
          << " applied=" << stats->applied
          << " lag=" << FormatDuration(stats->apply_lag)
          << " journal=" << stats->journal_used_bytes << "B";
    if (stats->journal_overflows > 0) {
      *out_ << " OVERFLOWS=" << stats->journal_overflows;
    }
    const std::string recovery = DescribeRecovery(*stats);
    if (!recovery.empty()) *out_ << " [" << recovery << "]";
    *out_ << "\n";
    for (replication::PairId pid :
         system_->replication()->ListGroupPairs(gid)) {
      const replication::Pair* pair = system_->replication()->GetPair(pid);
      if (pair == nullptr) continue;
      *out_ << "  pair " << pair->config().name << " ["
            << PairStateName(pair->state()) << "]\n";
    }
  }
  return OkStatus();
}

Status Console::Analytics(const std::string& ns, const std::string& group) {
  ZB_ASSIGN_OR_RETURN(snapshot::CowSnapshot * sales_snap,
                      system_->ResolveSnapshot(ns, group, "sales-db"));
  db::DbOptions opts = DbOpts();
  opts.read_only = true;
  ZB_ASSIGN_OR_RETURN(auto sales_db, db::MiniDb::Open(sales_snap, opts));
  auto summary = workload::SummarizeSales(sales_db.get());
  *out_ << "analytics on " << group << ": orders=" << summary.order_count
        << " revenue=$" << summary.revenue_cents / 100 << "."
        << (summary.revenue_cents % 100 < 10 ? "0" : "")
        << summary.revenue_cents % 100 << "\n";
  for (const auto& item : workload::TopItems(sales_db.get(), 3)) {
    *out_ << "  " << item.item << " orders=" << item.orders << "\n";
  }
  return OkStatus();
}

Status Console::CheckBackup(const std::string& ns) {
  ZB_ASSIGN_OR_RETURN(storage::VolumeId sales_vol,
                      system_->ResolveBackupVolume(ns, "sales-db"));
  ZB_ASSIGN_OR_RETURN(storage::VolumeId stock_vol,
                      system_->ResolveBackupVolume(ns, "stock-db"));
  storage::ArrayVolumeDevice sales_dev(system_->backup_site()->array(),
                                       sales_vol);
  storage::ArrayVolumeDevice stock_dev(system_->backup_site()->array(),
                                       stock_vol);
  db::DbOptions opts = DbOpts();
  opts.read_only = true;
  ZB_ASSIGN_OR_RETURN(auto sales_db, db::MiniDb::Open(&sales_dev, opts));
  ZB_ASSIGN_OR_RETURN(auto stock_db, db::MiniDb::Open(&stock_dev, opts));
  auto report = workload::CheckConsistency(sales_db.get(), stock_db.get());
  *out_ << ns << " backup image: " << report.ToString() << "\n";
  return report.collapsed() ? DataLossError("backup image collapsed")
                            : OkStatus();
}

}  // namespace zerobak::core
