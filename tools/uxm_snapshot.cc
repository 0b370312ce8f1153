// uxm_snapshot: command-line inspector for the on-disk snapshot format
// (src/snapshot/snapshot_format.h).
//
//   uxm_snapshot inspect <file>   print header + section directory +
//                                 the corpus's shard-assignment summary
//                                 (documents per shard at this host's
//                                 default shard count — assignment is a
//                                 pure function of the document name, so
//                                 the layout printed here is exactly how
//                                 any same-S system partitions the
//                                 restored corpus)
//   uxm_snapshot verify  <file>   recompute every checksum; exit 0 only
//                                 when the whole file validates
//
// The CI cross-process restore job runs `verify` on the snapshot it just
// wrote before handing it to the clean-process loader, so a corrupt
// artifact fails with a named section instead of a confusing downstream
// diff.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "corpus/corpus_executor.h"
#include "snapshot/snapshot_format.h"
#include "snapshot/snapshot_loader.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: uxm_snapshot <inspect|verify> <snapshot-file>\n");
  return 2;
}

void PrintDirectory(const uxm::SnapshotInfo& info) {
  std::printf("snapshot version %u, %" PRIu64 " bytes, %zu sections\n",
              info.version, info.file_size, info.sections.size());
  std::printf("pairs %u, documents %u, default pair %d\n", info.pair_count,
              info.doc_count, info.default_pair);
  std::printf("directory checksum: %s\n", info.directory_ok ? "ok" : "BAD");
  std::printf("%-22s %6s %10s %10s %18s %s\n", "section", "owner", "offset",
              "length", "checksum", "status");
  for (const uxm::SnapshotSectionInfo& s : info.sections) {
    std::printf("%-22s %6u %10" PRIu64 " %10" PRIu64 " 0x%016" PRIx64 " %s\n",
                uxm::SnapshotSectionKindName(s.kind), s.owner, s.offset,
                s.length, s.checksum, s.checksum_ok ? "ok" : "BAD");
  }
}

void PrintShardAssignment(const uxm::LoadedSnapshot& loaded) {
  const auto shards = static_cast<size_t>(uxm::DefaultShardCount());
  std::vector<size_t> counts(shards, 0);
  for (const uxm::LoadedDoc& doc : loaded.documents) {
    ++counts[uxm::ShardForDocument(doc.name, shards)];
  }
  std::printf("shard assignment at S=%zu (this host's default):\n", shards);
  for (size_t s = 0; s < shards; ++s) {
    std::printf("  shard %zu: %zu document%s\n", s, counts[s],
                counts[s] == 1 ? "" : "s");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) return Usage();
  const std::string mode = argv[1];
  const std::string path = argv[2];
  if (mode != "inspect" && mode != "verify") return Usage();

  const auto info = uxm::InspectSnapshot(path);
  if (!info.ok()) {
    std::fprintf(stderr, "uxm_snapshot: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  PrintDirectory(*info);

  bool damaged = !info->directory_ok;
  for (const uxm::SnapshotSectionInfo& s : info->sections) {
    damaged = damaged || !s.checksum_ok;
  }
  if (mode == "verify") {
    // verify goes beyond checksums: a full load exercises every
    // structural invariant the evaluation kernel relies on.
    if (!damaged) {
      const auto loaded = uxm::LoadSnapshot(path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "uxm_snapshot: load failed: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      std::printf("verify: OK (%zu pairs, %zu documents)\n",
                  loaded->pairs.size(), loaded->documents.size());
    }
  } else if (!damaged) {
    // inspect: summarize where a sharded system would place the corpus.
    // Best-effort — a structurally unloadable file still gets its
    // directory printed above, with `verify` naming the real failure.
    const auto loaded = uxm::LoadSnapshot(path);
    if (loaded.ok()) {
      PrintShardAssignment(*loaded);
    } else {
      std::fprintf(stderr, "uxm_snapshot: shard summary unavailable: %s\n",
                   loaded.status().ToString().c_str());
    }
  }
  if (damaged) {
    std::fprintf(stderr, "uxm_snapshot: snapshot is damaged\n");
    return 1;
  }
  return 0;
}
