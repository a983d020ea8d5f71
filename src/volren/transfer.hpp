// Classification: "sample points are classified with opacity or
// reflectivity according to gray values and gradient magnitude" (§3.2).
//
// A transfer function maps the interpolated gray value to opacity and
// emitted intensity; gradient magnitude modulates surface reflectivity
// (simple Phong-free headlight shading). Three opacity presets for soft
// tissue implement the paper's "three different levels of opacity".
#pragma once

#include <string>

namespace atlantis::volren {

struct Classified {
  double opacity = 0.0;    // per-sample alpha in [0, 1]
  double intensity = 0.0;  // emitted/reflected light in [0, 1]
};

class TransferFunction {
 public:
  /// Opacity assigned to soft tissue (0 = bone-only rendering) and to
  /// bone above `bone_iso`. The semi-transparent presets lower the bone
  /// opacity as well — that is what lets rays see *into* the skull, and
  /// why their sample counts (and rendering times) grow the way §3.4
  /// reports.
  TransferFunction(std::string name, double tissue_opacity,
                   double bone_opacity = 0.95, double bone_iso = 180.0);

  const std::string& name() const { return name_; }
  double bone_opacity() const { return bone_opacity_; }

  /// Classifies one sample (value in [0,255], gradient magnitude >= 0).
  Classified classify(double value, double gradient_mag) const;

  /// Opacity upper bound for a gray value: used by the empty-space
  /// data structure (a block is skippable if the bound is 0 for its
  /// whole value range).
  double max_opacity(double value) const;

 private:
  std::string name_;
  double tissue_opacity_;
  double bone_opacity_;
  double bone_iso_;
};

/// The paper's three soft-tissue opacity levels.
TransferFunction tf_opaque();          // bone surface only
TransferFunction tf_semi_low();        // faint soft tissue
TransferFunction tf_semi_high();       // strong soft tissue

}  // namespace atlantis::volren
