"""Regenerate the preset configs under presets/.

Each preset captures the best published hyperparameters for one
(dataset, backbone, loss) cell; shared settings (embedding size 64,
batch 1024, 1024 sampled negatives, 2 propagation layers, InfoNCE
weight 0.001 at temperature 0.2, noise modulus 0.2) are common to all.
Each preset's data.input names the split directory to make with
`drrl split` from the dataset's log (`--kind temporal` for the
temporal-shift cells, as the input line's comment says).
"""

from __future__ import annotations

from pathlib import Path

PRESET_DIR = Path(__file__).resolve().parent.parent / "presets"

# dataset -> backbone -> loss -> (lr, wd, extras)
# extras: ccl {alpha, margin}; sl {tau}; drrl {lr_beta, gamma, beta0}
# and for the temporal-shift cells {lr_beta, gamma, c, beta0}.
IID = {
    "gowalla": {
        "mf": {
            "mse": (1e-3, 1e-7, ()),
            "bce": (1e-3, 1e-3, ()),
            "bpr": (1e-4, 1e-3, ()),
            "ccl": (1e-2, 0.0, (130, 0.80)),
            "sl": (1e-2, 0.0, (0.09,)),
            "drrl": (1e-5, 0.0, (1e-5, 1.09, 0.85)),
        },
        "lightgcn": {
            "mse": (1e-3, 1e-3, ()),
            "bce": (1e-3, 1e-8, ()),
            "bpr": (1e-3, 1e-6, ()),
            "ccl": (1e-3, 0.0, (160, 0.90)),
            "sl": (1e-1, 0.0, (0.08,)),
            "drrl": (1e-1, 0.0, (1e-4, 1.08, 0.90)),
        },
        "xsimgcl": {
            "mse": (1e-3, 1e-2, ()),
            "bce": (1e-3, 0.0, ()),
            "bpr": (1e-3, 0.0, ()),
            "ccl": (1e-2, 0.0, (160, 0.85)),
            "sl": (1e-1, 0.0, (0.07,)),
            "drrl": (1e-1, 0.0, (1e-4, 1.09, 0.90)),
        },
    },
    "kitchen": {
        "mf": {
            "mse": (1e-4, 1e-2, ()),
            "bce": (1e-3, 1e-2, ()),
            "bpr": (1e-3, 1e-4, ()),
            "ccl": (1e-1, 0.0, (9, 0.85)),
            "sl": (1e-2, 0.0, (0.20,)),
            "drrl": (1e-3, 0.0, (1e-4, 1.2, 0.85)),
        },
        "lightgcn": {
            "mse": (1e-3, 1e-4, ()),
            "bce": (1e-3, 1e-4, ()),
            "bpr": (1e-3, 1e-7, ()),
            "ccl": (1e-3, 0.0, (7, 0.85)),
            "sl": (1e-1, 0.0, (0.25,)),
            "drrl": (1e-4, 0.0, (1e-4, 1.21, 0.85)),
        },
        "xsimgcl": {
            "mse": (1e-4, 0.0, ()),
            "bce": (1e-3, 0.0, ()),
            "bpr": (1e-3, 0.0, ()),
            "ccl": (1e-2, 0.0, (8, 0.80)),
            "sl": (1e-2, 0.0, (0.18,)),
            "drrl": (1e-2, 0.0, (1e-4, 1.24, 0.85)),
        },
    },
    "electronics": {
        "mf": {
            "mse": (1e-3, 1e-2, ()),
            "bce": (1e-3, 1e-2, ()),
            "bpr": (1e-3, 1e-3, ()),
            "ccl": (1e-3, 0.0, (6, 0.90)),
            "sl": (1e-1, 0.0, (0.26,)),
            "drrl": (1e-1, 0.0, (1e-5, 1.27, 0.70)),
        },
        "lightgcn": {
            "mse": (1e-3, 1e-6, ()),
            "bce": (1e-3, 1e-7, ()),
            "bpr": (1e-3, 1e-4, ()),
            "ccl": (1e-4, 0.0, (6, 0.85)),
            "sl": (1e-2, 0.0, (0.25,)),
            "drrl": (1e-1, 0.0, (1e-4, 1.21, 0.80)),
        },
        "xsimgcl": {
            "mse": (1e-3, 1e-7, ()),
            "bce": (1e-3, 0.0, ()),
            "bpr": (1e-3, 0.0, ()),
            "ccl": (1e-2, 0.0, (6, 0.80)),
            "sl": (1e-2, 0.0, (0.23,)),
            "drrl": (1e-2, 0.0, (1e-4, 1.19, 0.85)),
        },
    },
    "beauty": {
        "mf": {
            "mse": (1e-2, 1e-2, ()),
            "bce": (1e-3, 1e-2, ()),
            "bpr": (1e-3, 1e-5, ()),
            "ccl": (1e-4, 0.0, (9, 0.85)),
            "sl": (1e-1, 0.0, (0.20,)),
            "drrl": (1e-4, 0.0, (1e-5, 1.15, 0.90)),
        },
        "lightgcn": {
            "mse": (1e-2, 1e-2, ()),
            "bce": (1e-3, 1e-3, ()),
            "bpr": (1e-3, 1e-7, ()),
            "ccl": (1e-2, 0.0, (8, 0.85)),
            "sl": (1e-2, 0.0, (0.21,)),
            "drrl": (1e-2, 0.0, (1e-4, 1.17, 0.9)),
        },
        "xsimgcl": {
            "mse": (1e-3, 1e-2, ()),
            "bce": (1e-2, 1e-6, ()),
            "bpr": (1e-3, 0.0, ()),
            "ccl": (1e-2, 0.0, (9, 0.85)),
            "sl": (1e-1, 0.0, (0.18,)),
            "drrl": (1e-2, 0.0, (1e-5, 1.16, 0.85)),
        },
    },
}

# Temporal-shift cells; only the MF rows were published.
OOD = {
    "kitchen-ood": {
        "mf": {
            "bpr": (1e-3, 0.0, ()),
            "ccl": (1e-2, 0.0, (9, 0.90)),
            "sl": (1e-1, 0.0, (0.19,)),
            "drrl": (1e-2, 0.0, (1e-4, 2.50, 5.0, 0.85)),
        },
    },
    "electronics-ood": {
        "mf": {
            "bpr": (1e-4, 0.0, ()),
            "ccl": (1e-2, 0.0, (8, 0.80)),
            "sl": (1e-2, 0.0, (0.22,)),
            "drrl": (1e-1, 0.0, (1e-5, 1.16, 1.25, 0.90)),
        },
    },
}


def loss_section(loss, extras):
    lines = [f"kind = {loss}"]
    if loss == "ccl":
        alpha, margin = extras
        lines += [f"alpha = {alpha}", f"margin = {margin}"]
    elif loss == "sl":
        lines += [f"tau = {extras[0]}"]
    elif loss == "drrl":
        if len(extras) == 3:
            lr_beta, gamma, beta0 = extras
            c = 1.0
        else:
            lr_beta, gamma, c, beta0 = extras
        gamma_star = gamma / (gamma - 1.0)
        lines += [
            f"gamma_star = {gamma_star!r}  # divergence order gamma = {gamma}",
            f"c = {c}",
            "eps = 0.1",
            f"beta0 = {beta0}",
            f"lr_beta = {lr_beta}",
        ]
    return lines


def render(dataset, backbone, loss, lr, wd, extras, temporal):
    body = [
        "[data]",
        f"input = data/{dataset}" + ("  # drrl split --kind temporal" if temporal else ""),
        "",
        "[backbone]",
        f"kind = {backbone}",
        "layers = 2",
        "noise_modulus = 0.2",
        "contrast_layer = 1",
        "infonce_weight = 0.001",
        "infonce_temperature = 0.2",
        "",
        "[loss]",
        *loss_section(loss, extras),
        "",
        "[train]",
        f"lr = {lr}",
        f"weight_decay = {wd}",
        "batch_size = 1024",
        "n_neg = 1024",
        "embed_dim = 64",
        "metric_k = 20",
        "",
        "[output]",
        f"dir = runs/{dataset}-{backbone}-{loss}",
        "",
    ]
    return "\n".join(body)


def main():
    PRESET_DIR.mkdir(exist_ok=True)
    count = 0
    for table, temporal in ((IID, False), (OOD, True)):
        for dataset, backbones in table.items():
            for backbone, losses in backbones.items():
                for loss, (lr, wd, extras) in losses.items():
                    path = PRESET_DIR / f"{dataset}-{backbone}-{loss}.cfg"
                    path.write_text(render(dataset, backbone, loss, lr, wd, extras, temporal))
                    count += 1
    print(f"wrote {count} presets to {PRESET_DIR}")


if __name__ == "__main__":
    main()
