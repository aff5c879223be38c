#include "image/image.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "../test_util.h"
#include "image/draw.h"
#include "image/pnm_io.h"

namespace eslam {
namespace {

TEST(Image, ConstructionAndFill) {
  ImageU8 img(10, 6, 42);
  EXPECT_EQ(img.width(), 10);
  EXPECT_EQ(img.height(), 6);
  EXPECT_EQ(img.pixel_count(), 60u);
  EXPECT_EQ(img.at(9, 5), 42);
  img.fill(7);
  EXPECT_EQ(img.at(0, 0), 7);
  EXPECT_FALSE(img.empty());
  EXPECT_TRUE(ImageU8{}.empty());
}

TEST(Image, ClampedAccessAtBorders) {
  ImageU8 img(4, 4, 0);
  img.at(0, 0) = 11;
  img.at(3, 3) = 22;
  EXPECT_EQ(img.at_clamped(-5, -5), 11);
  EXPECT_EQ(img.at_clamped(100, 100), 22);
  EXPECT_EQ(img.at_clamped(0, 100), img.at(0, 3));
}

TEST(Image, ContainsAndRows) {
  ImageU8 img(5, 3);
  EXPECT_TRUE(img.contains(4, 2));
  EXPECT_FALSE(img.contains(5, 0));
  EXPECT_FALSE(img.contains(0, -1));
  img.row(1)[2] = 9;
  EXPECT_EQ(img.at(2, 1), 9);
}

TEST(Image, EqualityOperator) {
  const ImageU8 a = eslam::testing::structured_test_image(16, 16);
  ImageU8 b = a;
  EXPECT_EQ(a, b);
  b.at(3, 3) ^= 1;
  EXPECT_FALSE(a == b);
}

TEST(Image, GrayRgbRoundTrip) {
  const ImageU8 gray = eslam::testing::structured_test_image(20, 14);
  const ImageRgb rgb = to_rgb(gray);
  const ImageU8 back = to_gray(rgb);
  // BT.601 weights sum to 256 exactly, so gray->rgb->gray loses at most
  // one level to rounding.
  for (int y = 0; y < gray.height(); ++y)
    for (int x = 0; x < gray.width(); ++x)
      EXPECT_NEAR(back.at(x, y), gray.at(x, y), 1);
}

TEST(PnmIo, PgmRoundTrip) {
  const ImageU8 img = eslam::testing::structured_test_image(33, 17);
  const std::string path = ::testing::TempDir() + "/eslam_test.pgm";
  ASSERT_TRUE(write_pgm(path, img));
  const ImageU8 back = read_pgm(path);
  EXPECT_EQ(img, back);
  std::remove(path.c_str());
}

TEST(PnmIo, PpmRoundTrip) {
  ImageRgb img(9, 7);
  for (int y = 0; y < 7; ++y)
    for (int x = 0; x < 9; ++x)
      img.at(x, y) = Rgb{static_cast<std::uint8_t>(x * 20),
                         static_cast<std::uint8_t>(y * 30), 200};
  const std::string path = ::testing::TempDir() + "/eslam_test.ppm";
  ASSERT_TRUE(write_ppm(path, img));
  const ImageRgb back = read_ppm(path);
  EXPECT_EQ(img, back);
  std::remove(path.c_str());
}

TEST(PnmIo, MissingFileReturnsEmpty) {
  EXPECT_TRUE(read_pgm("/nonexistent/file.pgm").empty());
  EXPECT_TRUE(read_ppm("/nonexistent/file.ppm").empty());
}

TEST(PnmIo, RejectsWrongMagic) {
  const std::string path = ::testing::TempDir() + "/eslam_bad.pgm";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("P3\n2 2\n255\n0 0 0 0\n", f);
    std::fclose(f);
  }
  EXPECT_TRUE(read_pgm(path).empty());
  std::remove(path.c_str());
}

TEST(Draw, StaysInBounds) {
  ImageRgb img(20, 20);
  // None of these may touch out-of-bounds memory (bounds are checked by
  // Image::at asserts inside draw functions' contains() guards).
  draw_point(img, -5, -5, Rgb{255, 0, 0}, 3);
  draw_line(img, -10, 5, 30, 5, Rgb{0, 255, 0});
  draw_circle(img, 19, 19, 10, Rgb{0, 0, 255});
  draw_cross(img, 0, 0, 8, Rgb{9, 9, 9});
  SUCCEED();
}

TEST(Draw, LineEndpointsPainted) {
  ImageRgb img(20, 20);
  draw_line(img, 2, 3, 15, 11, Rgb{255, 1, 2});
  EXPECT_EQ(img.at(2, 3), (Rgb{255, 1, 2}));
  EXPECT_EQ(img.at(15, 11), (Rgb{255, 1, 2}));
}

TEST(Draw, HstackGeometry) {
  const ImageRgb a(10, 8), b(6, 12);
  const ImageRgb s = hstack(a, b);
  EXPECT_EQ(s.width(), 16);
  EXPECT_EQ(s.height(), 12);
}

}  // namespace
}  // namespace eslam
