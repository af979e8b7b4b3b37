package main

// TestFiguresGolden pins every figure the command writes, -extra
// included, byte for byte: one SHA-256 per emitted file, the same at
// parallelism 1 and 8.

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"relpipe/internal/expfig"
	"relpipe/internal/golden"
)

// figuresGolden holds the SHA-256 of every file `figures -instances 10
// -step 2 -seed 1 -extra` writes. A digest changes only when a change
// moves figures on purpose; that change records the new digests and
// says why in its change notes.
var figuresGolden = map[string]string{
	"fig06.csv": "68f8d371af28b8ad217b8d009e3d96c3b66687aae80e7199132bb9a769c5b822",
	"fig06.txt": "5b25857079d0b57239431b77c2499f3e75d985d556f3ca2d42416f4ea5b1219c",
	"fig07.csv": "7052d23cffbad2fe8d2381b7016871ac8115de9ce780dc8a4fa0a1ba69d9a529",
	"fig07.txt": "acd0858627d5ce406a5b40c2e28d01416bdfc0a1df6a49d7c881a5a2df3bada7",
	"fig08.csv": "819a4a0ea8d7c4fd217f4fe81bc6419c58c5f3e04dbc77a9dc1fe456dd4402df",
	"fig08.txt": "7cd872e02a81877d406fca28f1c22df4b7a8c00c70112b224c0b4ac03666ebae",
	"fig09.csv": "a6c15d6d77e84cb2fefb4cb7b7876bc22efedbe467b2e786a7b2a490788a3f49",
	"fig09.txt": "dac165817411b7ca126af238f733652e664173b5d888a2e2676a6a829670253a",
	"fig10.csv": "cd106259711290b0945f3ddf563dc7b02e48492dedb02cacb92a3982fd89ccc0",
	"fig10.txt": "3dc0827cd24aaa48312f2dcab897d1a54dc3f50660772fa2d2ec1c86bcda40f3",
	"fig11.csv": "60990cb3ef2ec7304d43207b09ce8461f9edbe4341978a3d2f5ce9d6a70d34e9",
	"fig11.txt": "574a03c6c5c773b513af8bb7e33e57398e3024f9ba5f6918b1253596c1d825ec",
	"fig12.csv": "3bc16b7e025a3b18afd7d9bfad274549ac94b6c0abb233030731b3914bb9214b",
	"fig12.txt": "12d9b7fda84af06c8f0d5ec2c8c5ad467ebbfd8996fc716f3151fd2cc9485020",
	"fig13.csv": "f9bbd5e4ea5cf570ef38d201dad33c5c44536c95132c4dfde4ff230cea130e8b",
	"fig13.txt": "ce24c897ae1058e67cd2da0c9700019f2039827039aa6af228197aa578e339f9",
	"fig14.csv": "bf8ddec912d011771c76c9521340a24140b1f66f75f4f3f73e376108d9b32584",
	"fig14.txt": "428b1f307f5f57c2b16e22b3d032c7d38e6f0b3161071fbd63d4090b2d6c1f5a",
	"fig15.csv": "4e5651f9dd86ef250684824fe5c07b06b0d77acd5646dbad3265634448248f07",
	"fig15.txt": "4d8084310113f3c4d7f7d1f50fc69cdb63eb536b3c7d5d34357050f02f56efe7",
	"figA1.csv": "44ab0cc963da03194944d36e3ec264327830f3d02556e16d29458fe1c9768f84",
	"figA1.txt": "c94eef78111d269b820107aa8396700ade92fd5a4c0b050ee119f513f31ce965",
	"figA4.csv": "809b0deeab7ea6e42c0295d4351909a471b3440978518924a1228f877af4468e",
	"figA4.txt": "89b2d9c3b17f0855d214ee1579d0eabb22d235f1c4bfc5cc3601e9c4131c0c38",
	"figB1.csv": "7deda8b43cf54ca8e29df8e1e5356fc5b94ff886f05c61c308486e51b6650c17",
	"figB1.txt": "87caaa013601981600fdf55ae7a77372ab7defa2ca2baf9bc9a69c19d0987e2e",
}

// figureDigests computes every figure under cfg, writes each through
// emit into a fresh directory and returns the SHA-256 of each file.
func figureDigests(t *testing.T, cfg expfig.Config) map[string]string {
	t.Helper()
	dir := t.TempDir()
	var figs []expfig.Figure
	for _, p := range pairs {
		a, b := p.fn(cfg)
		figs = append(figs, a, b)
	}
	for _, fn := range extras {
		figs = append(figs, fn(cfg))
	}
	for _, f := range figs {
		if err := emit(dir, f); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sums[e.Name()] = golden.Sum(b)
	}
	return sums
}

func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("computes every figure twice")
	}
	golden.SkipOffArch(t)
	seq := figureDigests(t, expfig.Config{Instances: 10, Step: 2, Seed: 1, Parallelism: 1})
	par := figureDigests(t, expfig.Config{Instances: 10, Step: 2, Seed: 1, Parallelism: 8})
	names := make([]string, 0, len(seq))
	for name := range seq {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if par[name] != seq[name] {
			t.Errorf("%s: digest %s at parallelism 8, %s at 1", name, par[name], seq[name])
		}
		golden.Check(t, name, seq[name], figuresGolden[name])
	}
	if len(seq) != len(par) || len(seq) != len(figuresGolden) {
		t.Errorf("%d files at parallelism 1, %d at 8, %d golden", len(seq), len(par), len(figuresGolden))
	}
}
