/// Unit tests for the storage seam itself: MappedFile's RAII mapping and
/// ArrayRef's owned/aliased dual nature. The higher layers (serialize,
/// engine, serving) only see these two types, so their contracts — views
/// keep mappings alive, copies deep-copy owned data but share mappings,
/// whole-value assignment re-seats to owned mode — are pinned down here.

#include "common/mapped_file.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace hcd {
namespace {

std::string WriteTempFile(const std::string& name,
                          const std::vector<uint32_t>& words) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  if (!words.empty()) {
    EXPECT_EQ(std::fwrite(words.data(), sizeof(uint32_t), words.size(), f),
              words.size());
  }
  std::fclose(f);
  return path;
}

TEST(MappedFile, OpensAndExposesBytes) {
  const std::vector<uint32_t> words = {7, 11, 13, 17};
  const std::string path = WriteTempFile("mf_basic.bin", words);

  std::shared_ptr<const MappedFile> file;
  ASSERT_TRUE(MappedFile::Open(path, &file).ok());
  ASSERT_NE(file, nullptr);
  EXPECT_EQ(file->size(), words.size() * sizeof(uint32_t));
  EXPECT_EQ(file->path(), path);
  EXPECT_EQ(std::memcmp(file->data(), words.data(), file->size()), 0);
  std::remove(path.c_str());
}

TEST(MappedFile, MissingFileIsIoErrorNotCrash) {
  std::shared_ptr<const MappedFile> file;
  const Status s =
      MappedFile::Open(::testing::TempDir() + "/mf_does_not_exist", &file);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(file, nullptr);
}

TEST(MappedFile, EmptyFileMapsToZeroLengthHandle) {
  const std::string path = WriteTempFile("mf_empty.bin", {});
  std::shared_ptr<const MappedFile> file;
  ASSERT_TRUE(MappedFile::Open(path, &file).ok());
  ASSERT_NE(file, nullptr);
  EXPECT_EQ(file->size(), 0u);
  std::remove(path.c_str());
}

TEST(MappedFile, TotalMappedBytesTracksLifetime) {
  const uint64_t before = MappedFile::TotalMappedBytes();
  const std::vector<uint32_t> words(256, 5);
  const std::string path = WriteTempFile("mf_gauge.bin", words);
  {
    std::shared_ptr<const MappedFile> file;
    ASSERT_TRUE(MappedFile::Open(path, &file).ok());
    EXPECT_EQ(MappedFile::TotalMappedBytes(), before + file->size());
  }
  EXPECT_EQ(MappedFile::TotalMappedBytes(), before);
  std::remove(path.c_str());
}

TEST(ScratchPages, ZeroFilledWritableAndTyped) {
  ScratchPages pages(3 * 4096 + 8);
  const std::span<uint64_t> words = pages.As<uint64_t>();
  ASSERT_EQ(words.size(), (3 * 4096 + 8) / sizeof(uint64_t));
  for (const uint64_t w : words) ASSERT_EQ(w, 0u);
  for (size_t i = 0; i < words.size(); ++i) words[i] = i;
  EXPECT_EQ(words.back(), words.size() - 1);
  // Whole elements only: 12296 bytes hold 1024 12-byte records.
  struct Triple {
    uint32_t a, b, c;
  };
  EXPECT_EQ(pages.As<Triple>().size(), (3 * 4096 + 8) / sizeof(Triple));
}

TEST(ScratchPages, EmptyMapsNothing) {
  ScratchPages pages(0);
  EXPECT_TRUE(pages.As<uint32_t>().empty());
}

// ---------------------------------------------------------------------------
// ArrayRef, owned mode: vector semantics.

TEST(ArrayRef, OwnedModeBehavesLikeVector) {
  ArrayRef<uint32_t> ref = {1, 2, 3};
  EXPECT_FALSE(ref.mapped());
  EXPECT_EQ(ref.size(), 3u);
  EXPECT_EQ(ref[0], 1u);
  EXPECT_EQ(ref.back(), 3u);

  ref.push_back(4);
  EXPECT_EQ(ref.size(), 4u);
  ref.pop_back();
  ref.resize(5);
  EXPECT_EQ(ref.size(), 5u);
  EXPECT_EQ(ref[4], 0u);
  ref[4] = 9;
  EXPECT_EQ(ref[4], 9u);

  ref.assign(2, 7);
  EXPECT_EQ(ref, (ArrayRef<uint32_t>{7, 7}));
}

TEST(ArrayRef, OwnedCopyIsDeep) {
  ArrayRef<uint32_t> a = {1, 2, 3};
  ArrayRef<uint32_t> b = a;
  b[0] = 100;
  EXPECT_EQ(a[0], 1u);
  EXPECT_NE(a.data(), b.data());
}

TEST(ArrayRef, MoveTransfersAndEmptiesSource) {
  ArrayRef<uint32_t> a = {4, 5, 6};
  ArrayRef<uint32_t> b = std::move(a);
  EXPECT_EQ(b, (ArrayRef<uint32_t>{4, 5, 6}));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): pinned contract
}

// ---------------------------------------------------------------------------
// ArrayRef, aliased mode: views co-own the mapping.

/// Opens a mapping over `words` and returns an aliasing ref plus the handle.
ArrayRef<uint32_t> AliasOf(const std::string& name,
                           const std::vector<uint32_t>& words,
                           std::shared_ptr<const MappedFile>* out_file) {
  const std::string path = WriteTempFile(name, words);
  std::shared_ptr<const MappedFile> file;
  EXPECT_TRUE(MappedFile::Open(path, &file).ok());
  std::remove(path.c_str());
  ArrayRef<uint32_t> ref(reinterpret_cast<const uint32_t*>(file->data()),
                         words.size(), file);
  if (out_file != nullptr) *out_file = file;
  return ref;
}

TEST(ArrayRef, AliasedModeReadsTheMapping) {
  std::shared_ptr<const MappedFile> file;
  ArrayRef<uint32_t> ref = AliasOf("ar_alias.bin", {10, 20, 30}, &file);
  EXPECT_TRUE(ref.mapped());
  EXPECT_EQ(ref.size(), 3u);
  EXPECT_EQ(ref[1], 20u);
  EXPECT_EQ(ref.front(), 10u);
  EXPECT_EQ(ref.back(), 30u);
  EXPECT_EQ(static_cast<const void*>(ref.data()),
            static_cast<const void*>(file->data()));

  // Spans and equality cross the storage seam.
  std::span<const uint32_t> span = ref;
  EXPECT_EQ(span.size(), 3u);
  EXPECT_EQ(ref, (ArrayRef<uint32_t>{10, 20, 30}));
}

TEST(ArrayRef, CopyOfAliasSharesTheMapping) {
  std::shared_ptr<const MappedFile> file;
  ArrayRef<uint32_t> a = AliasOf("ar_share.bin", {1, 2}, &file);
  ArrayRef<uint32_t> b = a;
  EXPECT_TRUE(b.mapped());
  EXPECT_EQ(a.data(), b.data());  // a view, not a copy
  EXPECT_EQ(file.use_count(), 3);  // file + a + b
}

TEST(ArrayRef, ViewKeepsMappingAliveAfterHandleDrops) {
  const uint64_t before = MappedFile::TotalMappedBytes();
  ArrayRef<uint32_t> ref;
  {
    std::shared_ptr<const MappedFile> file;
    ref = AliasOf("ar_alive.bin", {42, 43, 44}, &file);
  }
  // The explicit handle is gone (and the file unlinked); the view is the
  // only owner left and the pages must still be readable.
  EXPECT_TRUE(ref.mapped());
  EXPECT_EQ(ref[0], 42u);
  EXPECT_EQ(ref[2], 44u);
  EXPECT_GT(MappedFile::TotalMappedBytes(), before);
  ref = {};  // last owner: unmaps
  EXPECT_EQ(MappedFile::TotalMappedBytes(), before);
}

TEST(ArrayRef, WholeValueAssignmentReseatsToOwned) {
  ArrayRef<uint32_t> ref = AliasOf("ar_reseat.bin", {9, 9, 9}, nullptr);
  ASSERT_TRUE(ref.mapped());
  ref = {1, 2};
  EXPECT_FALSE(ref.mapped());
  EXPECT_EQ(ref, (ArrayRef<uint32_t>{1, 2}));

  ArrayRef<uint32_t> ref2 = AliasOf("ar_reseat2.bin", {9}, nullptr);
  ref2.assign(4, 6);
  EXPECT_FALSE(ref2.mapped());
  EXPECT_EQ(ref2.size(), 4u);

  ArrayRef<uint32_t> ref3 = AliasOf("ar_reseat3.bin", {9}, nullptr);
  ref3 = std::vector<uint32_t>{5, 5};
  EXPECT_FALSE(ref3.mapped());

  // Assigning an owned value over a mapped one drops the mapping.
  ArrayRef<uint32_t> owned = {8};
  ArrayRef<uint32_t> ref4 = AliasOf("ar_reseat4.bin", {9}, nullptr);
  ref4 = owned;
  EXPECT_FALSE(ref4.mapped());
  EXPECT_EQ(ref4[0], 8u);
}

TEST(ArrayRefDeathTest, GrowthMutatorsCheckOnMappedSections) {
  ArrayRef<uint32_t> ref = AliasOf("ar_death.bin", {1, 2, 3}, nullptr);
  ASSERT_TRUE(ref.mapped());
  EXPECT_DEATH(ref.resize(10), "cannot resize a mapped section");
  EXPECT_DEATH(ref.push_back(4), "cannot grow a mapped section");
  EXPECT_DEATH(ref.pop_back(), "cannot shrink a mapped section");
}

}  // namespace
}  // namespace hcd
