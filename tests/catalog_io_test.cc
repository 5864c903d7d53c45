#include "workload/catalog_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/check.h"

namespace dbs {
namespace {

TEST(CatalogIo, ParsesBasicFile) {
  std::istringstream in(
      "# comment\n"
      "size,freq,name\n"
      "10.5,0.5,video.mp4\n"
      "\n"
      "2,0.25,page.html\n"
      "1,0.25\n");
  const Catalog catalog = load_catalog(in);
  ASSERT_EQ(catalog.database.size(), 3u);
  EXPECT_DOUBLE_EQ(catalog.database.item(0).size, 10.5);
  EXPECT_DOUBLE_EQ(catalog.database.item(0).freq, 0.5);
  EXPECT_EQ(catalog.name_of(0), "video.mp4");
  EXPECT_EQ(catalog.name_of(2), "d3");  // no name column on that row
}

TEST(CatalogIo, NormalizesFrequencies) {
  std::istringstream in("1,3\n1,1\n");
  const Catalog catalog = load_catalog(in);
  EXPECT_DOUBLE_EQ(catalog.database.item(0).freq, 0.75);
}

TEST(CatalogIo, HeaderIsOptional) {
  std::istringstream in("4,0.6\n2,0.4\n");
  EXPECT_EQ(load_catalog(in).database.size(), 2u);
}

TEST(CatalogIo, RejectsMalformedLines) {
  {
    std::istringstream in("1\n");
    EXPECT_THROW(load_catalog(in), std::runtime_error);
  }
  {
    std::istringstream in("1,2,3,4\n");
    EXPECT_THROW(load_catalog(in), std::runtime_error);
  }
  {
    std::istringstream in("abc,0.5\n");
    EXPECT_THROW(load_catalog(in), std::runtime_error);
  }
  {
    std::istringstream in("1.5x,0.5\n");
    EXPECT_THROW(load_catalog(in), std::runtime_error);
  }
  {
    std::istringstream in("-2,0.5\n");
    EXPECT_THROW(load_catalog(in), std::runtime_error);
  }
  {
    std::istringstream in("2,-0.5\n");
    EXPECT_THROW(load_catalog(in), std::runtime_error);
  }
}

TEST(CatalogIo, ErrorMessagesCarryLineNumbers) {
  std::istringstream in("1,0.5\n2,0.5\nbroken\n");
  try {
    load_catalog(in);
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(CatalogIo, EmptyFileRejected) {
  std::istringstream in("# only comments\n\n");
  EXPECT_THROW(load_catalog(in), std::runtime_error);
}

TEST(CatalogIo, MissingFileRejected) {
  EXPECT_THROW(load_catalog_file("/no/such/catalog.csv"), std::runtime_error);
}

TEST(CatalogIo, StoreLoadRoundTrip) {
  std::istringstream in("10,0.5,a\n30,0.3,b\n60,0.2,c\n");
  const Catalog original = load_catalog(in);
  std::ostringstream out;
  store_catalog(out, original);
  std::istringstream back(out.str());
  const Catalog reloaded = load_catalog(back);
  ASSERT_EQ(reloaded.database.size(), original.database.size());
  for (ItemId id = 0; id < original.database.size(); ++id) {
    EXPECT_DOUBLE_EQ(reloaded.database.item(id).size, original.database.item(id).size);
    EXPECT_NEAR(reloaded.database.item(id).freq, original.database.item(id).freq, 1e-12);
    EXPECT_EQ(reloaded.name_of(id), original.name_of(id));
  }
}

TEST(CatalogIo, LoadsPaperSampleFromRepo) {
  // The shipped sample catalogue is the paper's Table 2 profile.
  const Catalog catalog = load_catalog_file(
      std::string(DBS_SOURCE_DIR) + "/examples/data/sample_catalog.csv");
  EXPECT_EQ(catalog.database.size(), 15u);
  EXPECT_NEAR(catalog.database.total_size(), 135.60, 1e-9);
  EXPECT_EQ(catalog.name_of(10), "d11");
}

TEST(CatalogIo, RejectsCatalogueWhoseSizesOverflow) {
  // Three finite 1e308 sizes sum to infinity. Accepted, they would make
  // every Eq. 4 gain NaN and send DRP-CDS into an endless loop.
  EXPECT_THROW(load_catalog_file(std::string(DBS_SOURCE_DIR) +
                                 "/tests/data/overflow_catalog.csv"),
               ContractViolation);
}

}  // namespace
}  // namespace dbs
